// Command perfbench is gsched's benchmark: three named workloads that
// drive the gsched and gschedd binaries and the root gsched API, check
// every output, and print end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced run).
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -workload cli_huge|paper_spec|serve_mix -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// A human-readable report with every metric's sample count, the run's
// environment (nproc, GOMAXPROCS, Go version, seed) and failed_frac goes
// to standard error. The exit code is non-zero when any output check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the gsched and gschedd binaries
	work     string // scratch directory for generated inputs and caches
	tiny     bool   // self-test sizes, set only by the self-test
	inject   bool   // corrupt one output so the checks must fail (self-test only)
	nproc    int
}

// setupRuns is how many times each workload sets up in one run; setup_s
// is the median. A calibration round runs before each set-up.
const setupRuns = 9

// metric is one reported number with the sample count behind it. A
// metric is unsupported when it is a percentile with fewer than ten
// samples beyond it. Only the metrics BENCHMARK.json declares for the
// run's mode go into the JSON; the report lists the others as report
// only.
type metric struct {
	name        string
	unit        string
	value       float64
	samples     int
	unsupported bool
}

// result is what one workload run reports.
type result struct {
	attempted int
	failed    int
	metrics   []metric
	notes     []string // extra report lines (per-outcome counts, step table)
}

func (r *result) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

// addSetup reports setup_s, the median of one run's set-up times scaled
// to the reference machine's speed, and lists every raw time in the
// report.
func (r *result) addSetup(secs []float64, cal *calibrator) {
	r.add("setup_s", "s", median(secs)*cal.wallScale(), len(secs))
	ms := make([]string, len(secs))
	for i, s := range secs {
		ms[i] = fmt.Sprintf("%.1f", 1000*s)
	}
	r.note("raw set-up times: %s ms", strings.Join(ms, ", "))
}

func (r *result) skip(name, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, samples: samples, unsupported: true})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*config) (*result, error){
	"cli_huge":   runCLIHuge,
	"paper_spec": runPaperSpec,
	"serve_mix":  runServeMix,
}

func main() {
	if os.Getenv(spawnEnv) != "" {
		os.Exit(runSpawner(os.Args[1:]))
	}
	if probe := os.Getenv(probeEnv); probe != "" {
		os.Exit(runProbe(probe))
	}
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "cli_huge, paper_spec or serve_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the gsched and gschedd binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for generated inputs")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want -trace 0|1, a positive -seconds and no arguments")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	cfg.nproc = runtime.NumCPU()

	os.Exit(run(&cfg, os.Stdout, os.Stderr))
}

// run executes one workload, writes the JSON result line to stdout and
// the report to stderr, and returns the process exit code.
func run(cfg *config, stdout, stderr io.Writer) int {
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want cli_huge, paper_spec or serve_mix)\n", cfg.workload)
		return 2
	}
	var err error
	if cfg.bin, err = filepath.Abs(cfg.bin); err == nil {
		cfg.work, err = filepath.Abs(filepath.Join(cfg.work, cfg.workload))
	}
	if err == nil {
		err = os.MkdirAll(cfg.work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	start := time.Now()
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	report(cfg, res, time.Since(start), stdout, stderr)
	if res.failed > 0 || res.attempted < 1 {
		return 1
	}
	return 0
}

func report(cfg *config, res *result, wall time.Duration, stdout, stderr io.Writer) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(stderr, "perfbench %s, %s run: seed %d, %.0fs measured, %.1fs wall\n",
		cfg.workload, mode, cfg.seed, cfg.seconds, wall.Seconds())
	fmt.Fprintf(stderr, "  env: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "  "+n)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(stderr, "  %-36s %14.10g %-8s n=%d\n", "failed_frac", frac, "ratio", res.attempted)
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	byName := map[string]metric{}
	for _, m := range res.metrics {
		byName[m.name] = m
	}
	// Every declared metric goes into the JSON; one the workload did not
	// measure is printed as 0 and marked in the report.
	out := make(map[string]any, len(declared))
	for _, d := range declared {
		m, ok := byName[d.name]
		delete(byName, d.name)
		switch {
		case !ok:
			fmt.Fprintf(stderr, "  %-36s %14d %-8s n=0 (not on this workload's path)\n", d.name, 0, d.unit)
			m = metric{name: d.name, unit: d.unit}
		case m.unsupported:
			fmt.Fprintf(stderr, "  %-36s %14d %-8s n=%d (unsupported: too few samples)\n", d.name, 0, d.unit, m.samples)
			m.value = 0
		default:
			fmt.Fprintf(stderr, "  %-36s %14.10g %-8s n=%d\n", d.name, m.value, d.unit, m.samples)
		}
		out[d.name] = map[string]any{"value": m.value, "unit": d.unit}
	}
	var rest []metric
	for _, m := range byName {
		rest = append(rest, m)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].name < rest[j].name })
	for _, m := range rest {
		if m.unsupported {
			fmt.Fprintf(stderr, "  %-36s %14s %-8s n=%d (report only)\n", m.name, "unsupported", m.unit, m.samples)
		} else {
			fmt.Fprintf(stderr, "  %-36s %14.10g %-8s n=%d (report only)\n", m.name, m.value, m.unit, m.samples)
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Fprintln(stdout, string(line))
}
