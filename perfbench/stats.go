package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"gsched/internal/core"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest quantile, at most want, that leaves at least ten
// samples beyond it: a percentile is only reported where ten samples
// support it. It returns 0 when n < 20 (no tail worth the name).
func tailQ(n int, want float64) float64 {
	if n < 20 {
		return 0
	}
	return math.Min(want, 1-10/float64(n))
}

// supports reports whether n samples put at least ten beyond quantile q.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// deadline returns when a measured phase of cfg.seconds starting now ends.
func (cfg *config) deadline() time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// samples collects repeated measurements of named metrics, reported as
// medians in the order first added.
type samples struct {
	order []string
	vals  map[string][]float64
}

func (s *samples) add(name string, v float64) {
	if s.vals == nil {
		s.vals = map[string][]float64{}
	}
	if _, ok := s.vals[name]; !ok {
		s.order = append(s.order, name)
	}
	s.vals[name] = append(s.vals[name], v)
}

func (s *samples) report(res *result, unit string) {
	for _, name := range s.order {
		res.add(name, unit, median(s.vals[name]), len(s.vals[name]))
	}
}

// phaseMetrics names the core.Trace phases the traced runs report.
var phaseMetrics = []struct {
	name  string
	phase core.Phase
}{
	{"rename.ms", core.PhaseRename},
	{"pdg.ms", core.PhasePDG},
	{"core.region_ms", core.PhaseRegion},
	{"core.local_ms", core.PhaseLocal},
	{"xform.transform_ms", core.PhaseXform},
}

// addPhases records each reported phase's total (ms) from tr and
// returns their sum plus the verify phase's.
func (s *samples) addPhases(tr *core.Trace) float64 {
	sum := 0.0
	for _, pm := range phaseMetrics {
		d, _ := tr.PhaseTotal(pm.phase)
		s.add(pm.name, ms(d))
		sum += ms(d)
	}
	d, _ := tr.PhaseTotal(core.PhaseVerify)
	return sum + ms(d)
}
