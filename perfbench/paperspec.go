package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"time"

	"gsched"
	"gsched/internal/core"
	"gsched/internal/workload"
)

// paper_spec: the paper's own Figure 7/8 workload — the four SPEC
// proxies (li, eqntott, espresso, gcc) compiled in process through the
// root API: CompileC → Optimize → SchedulePipeline (speculative, rs6k,
// §6 pipeline, Verify on, Parallelism 1) → PrintAsm. One operation is
// one pass over all four. It is the only workload whose output is
// executed, the only one with the verifier on, and the only batch
// workload through minic and opt; its functions are small, so fixed
// per-function costs show here and not in cli_huge.
func specOptions(verify bool) gsched.Options {
	o := gsched.Defaults(gsched.RS6K(), gsched.LevelSpeculative)
	o.Verify = verify
	o.Parallelism = 1
	return o
}

// proxyOut is one proxy's scheduled program and its printed assembly.
type proxyOut struct {
	prog *gsched.Program
	asm  string
	st   gsched.PipelineStats
}

// specTrace collects the per-layer times of traced passes.
type specTrace struct {
	compile, opt, run, print time.Duration
	phases                   core.Trace
}

// specPass compiles and schedules every proxy once. With tr nil nothing
// is timed inside.
func specPass(ws []*workload.Workload, opts gsched.Options, tr *specTrace) ([]proxyOut, error) {
	var sink specTrace
	acc := &sink
	if tr != nil {
		acc = tr
		opts.Trace = &tr.phases
	}
	timed := func(d *time.Duration, fn func()) {
		if tr == nil {
			fn()
			return
		}
		t := time.Now()
		fn()
		*d += time.Since(t)
	}
	outs := make([]proxyOut, len(ws))
	for i, w := range ws {
		var err error
		o := &outs[i]
		timed(&acc.compile, func() { o.prog, err = gsched.CompileC(w.Source) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		timed(&acc.opt, func() { gsched.Optimize(o.prog) })
		timed(&acc.run, func() { o.st, err = gsched.SchedulePipeline(o.prog, opts, gsched.DefaultPipeline()) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		timed(&acc.print, func() { o.asm = gsched.PrintAsm(o.prog) })
	}
	return outs, nil
}

// specRef is what a proxy must compute, from the simulator running the
// unscheduled program, plus the BASE compiler's simulated cycles.
type specRef struct {
	ret        int64
	printed    []int64
	baseCycles int64
}

func specReference(w *workload.Workload) (specRef, error) {
	var ref specRef
	prog, err := gsched.CompileC(w.Source)
	if err != nil {
		return ref, err
	}
	gsched.Optimize(prog)
	r, err := gsched.Run(prog, w.Entry, w.Args, w.Data, gsched.RunOptions{})
	if err != nil {
		return ref, fmt.Errorf("%s unscheduled: %w", w.Name, err)
	}
	ref.ret, ref.printed = r.Ret, r.Printed

	// BASE: level none with the local pass, as eval.CompileBase builds it.
	base, err := gsched.CompileC(w.Source)
	if err != nil {
		return ref, err
	}
	gsched.Optimize(base)
	if _, err := gsched.Schedule(base, gsched.Defaults(gsched.RS6K(), gsched.LevelNone)); err != nil {
		return ref, err
	}
	b, err := gsched.Run(base, w.Entry, w.Args, w.Data, gsched.RunOptions{Machine: gsched.RS6K(), ForgivingLoads: true})
	if err != nil {
		return ref, fmt.Errorf("%s base: %w", w.Name, err)
	}
	ref.baseCycles = b.Cycles
	return ref, nil
}

// specSimulate runs a scheduled proxy and checks it against its
// reference; it returns the simulated cycles.
func specSimulate(w *workload.Workload, out proxyOut, ref specRef, corrupt bool) (int64, error) {
	r, err := gsched.Run(out.prog, w.Entry, w.Args, w.Data, gsched.RunOptions{Machine: gsched.RS6K(), ForgivingLoads: true})
	if err != nil {
		return 0, fmt.Errorf("%s scheduled: %w", w.Name, err)
	}
	if corrupt {
		r.Ret++
	}
	if r.Ret != ref.ret || !slices.Equal(r.Printed, ref.printed) {
		return 0, fmt.Errorf("%s: scheduled program returned %d printed %v, unscheduled %d printed %v",
			w.Name, r.Ret, r.Printed, ref.ret, ref.printed)
	}
	return r.Cycles, nil
}

// probeEnv names the workload whose cold set-up a child process should
// time; a process started with it set runs only the probe.
const probeEnv = "PERFBENCH_SETUP_PROBE"

// runProbe is the child side of a set-up measurement: in a fresh
// process, build the proxies' inputs, then run the first pass and print
// how long that pass took and the process's peak RSS (KiB). Building the
// inputs is not timed: workload only generates inputs and is not
// measured. It returns the exit code.
func runProbe(name string) int {
	if name != "paper_spec" {
		fmt.Fprintf(os.Stderr, "perfbench: no set-up probe for %q\n", name)
		return 2
	}
	ws := workload.All()
	start := time.Now()
	if _, err := specPass(ws, specOptions(true), nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	took := time.Since(start)
	hwm, err := peakRSS(os.Getpid())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(took.Seconds(), hwm)
	return 0
}

// probeSetup runs the set-up probe in setupRuns fresh processes and
// returns the seconds and the peak RSS (MiB) each reported.
func probeSetup(cfg *config, cal *calibrator) (secs, rss []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < setupRuns; i++ {
		if err := cal.round(); err != nil {
			return nil, nil, err
		}
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), probeEnv+"="+cfg.workload)
		cmd.SysProcAttr = orphanKill()
		b, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up probe: %w", err)
		}
		var v float64
		var kib int64
		if _, err := fmt.Sscan(string(b), &v, &kib); err != nil {
			return nil, nil, fmt.Errorf("set-up probe output %q: %w", b, err)
		}
		secs = append(secs, v)
		rss = append(rss, float64(kib)/1024)
	}
	return secs, rss, nil
}

func runPaperSpec(cfg *config) (*result, error) {
	res := &result{}
	cal := &calibrator{par: 1}
	setups, rss, err := probeSetup(cfg, cal)
	if err != nil {
		return nil, err
	}
	ws := workload.All()
	refs := make([]specRef, len(ws))
	for i, w := range ws {
		if refs[i], err = specReference(w); err != nil {
			return nil, err
		}
	}
	first, err := specPass(ws, specOptions(true), nil)
	if err != nil {
		return nil, err
	}
	// Every timed pass must print exactly first's assembly, and first's
	// programs must compute what the unscheduled programs compute.
	cycles := make([]int64, len(ws))
	var speedups []float64
	for i, w := range ws {
		res.attempted++
		c, err := specSimulate(w, first[i], refs[i], cfg.inject && i == 0)
		if err != nil {
			res.failed++
			res.note("output check: %v", err)
			continue
		}
		cycles[i] = c
		speedups = append(speedups, float64(refs[i].baseCycles)/float64(c))
		res.note("%-8s base %9d cycles, scheduled %9d cycles, speedup %.4f",
			w.Name, refs[i].baseCycles, c, float64(refs[i].baseCycles)/float64(c))
	}

	if len(speedups) == len(ws) {
		res.add("sim.speedup_geomean", "x", geomean(speedups), len(speedups))
	}
	if cfg.trace {
		return traceSpec(cfg, res, ws, first, refs, cycles)
	}

	var passes []float64
	opts := specOptions(true)
	// A calibration round every calEvery passes; its CPU is taken out
	// of the passes' share.
	const calEvery = 5
	var calCPU time.Duration
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	dl := cfg.deadline()
	for i := 0; i < 3 || time.Now().Before(dl); i++ {
		if i%calEvery == 0 {
			c0, _ := selfCPU()
			if err := cal.round(); err != nil {
				return nil, err
			}
			c1, _ := selfCPU()
			calCPU += c1 - c0
		}
		res.attempted++
		start := time.Now()
		outs, err := specPass(ws, opts, nil)
		wall := time.Since(start)
		if err == nil {
			err = sameOutput(ws, outs, first)
		}
		if err != nil {
			res.failed++
			res.note("pass %d: %v", res.attempted, err)
			continue
		}
		passes = append(passes, ms(wall))
	}
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	cal.note(res)
	res.addSetup(setups, cal)
	if len(passes) > 0 {
		// Mean CPU per pass, so the garbage collector's work, done on
		// other threads and at other times, is charged to the passes.
		cpu := ms(cpu1-cpu0-calCPU) / float64(len(passes))
		res.note("raw wall per pass: p25 %.2f, p50 %.2f, p75 %.2f ms; raw CPU per pass %.2f ms",
			quantile(passes, 0.25), median(passes), quantile(passes, 0.75), cpu)
		res.add("wall_ms", "ms", median(passes)*cal.wallScale(), len(passes))
		res.add("cpu_ms", "ms", cpu*cal.cpuScale(), len(passes))
	}
	// Peak RSS comes from the set-up probes: this process's own peak
	// would include the calibration's garbage.
	res.add("peak_rss_mib", "MiB", median(rss), len(rss))
	return res, nil
}

// sameOutput checks a pass printed exactly the reference pass's bytes.
func sameOutput(ws []*workload.Workload, outs, want []proxyOut) error {
	for i := range outs {
		if outs[i].asm != want[i].asm {
			return fmt.Errorf("%s: printed assembly differs from the checked first pass", ws[i].Name)
		}
	}
	return nil
}

func traceSpec(cfg *config, res *result, ws []*workload.Workload, first []proxyOut, refs []specRef, cycles []int64) (*result, error) {
	on, off := specOptions(true), specOptions(false)
	var untraced, noVerify, traced []float64
	var layers samples
	pass := func(opts gsched.Options, tr *specTrace) (float64, bool) {
		res.attempted++
		start := time.Now()
		outs, err := specPass(ws, opts, tr)
		wall := time.Since(start)
		if err == nil {
			err = sameOutput(ws, outs, first)
		}
		if err != nil {
			res.failed++
			res.note("pass %d: %v", res.attempted, err)
			return 0, false
		}
		return ms(wall), true
	}
	kinds := []func(){
		func() {
			if w, ok := pass(on, nil); ok {
				untraced = append(untraced, w)
			}
		},
		func() {
			if w, ok := pass(off, nil); ok {
				noVerify = append(noVerify, w)
			}
		},
		func() {
			tr := &specTrace{}
			w, ok := pass(on, tr)
			if !ok {
				return
			}
			traced = append(traced, w)
			layers.add("minic.compile_ms", ms(tr.compile))
			layers.add("opt.ms", ms(tr.opt))
			phases := layers.addPhases(&tr.phases)
			layers.add("xform.run_ms", ms(tr.run))
			layers.add("xform.untraced_ms", ms(tr.run)-phases)
			layers.add("asm.print_ms", ms(tr.print))
			layers.add("untraced_ms", w-ms(tr.compile+tr.opt+tr.run+tr.print))
		},
	}
	// Verify-on untraced, verify-off untraced and verify-on traced
	// passes take turns, the first of each round rotating, so drift and
	// ordering effects hit all three alike.
	dl := cfg.deadline()
	for round := 0; round < 3 || time.Now().Before(dl); round++ {
		for i := range kinds {
			kinds[(round+i)%len(kinds)]()
		}
	}
	n := len(traced)
	layers.report(res, "ms")
	res.add("verify.overhead_pct", "%", 100*(median(untraced)/median(noVerify)-1), min(len(untraced), len(noVerify)))
	res.add("trace.overhead_pct", "%", 100*(median(traced)/median(untraced)-1), n)

	var st gsched.PipelineStats
	for i, w := range ws {
		st.Stats.Add(first[i].st.Stats)
		st.LoopsUnrolled += first[i].st.LoopsUnrolled
		st.LoopsRotated += first[i].st.LoopsRotated
		if cycles[i] > 0 {
			res.add("sim.cycles."+w.Name, "cycles", float64(cycles[i]), 1)
		}
		res.add("sim.base_cycles."+w.Name, "cycles", float64(refs[i].baseCycles), 1)
	}
	addMoveCounts(res, st, 1)
	res.add("xform.loops_unrolled", "count", float64(st.LoopsUnrolled), 1)
	res.add("xform.loops_rotated", "count", float64(st.LoopsRotated), 1)
	return res, nil
}
