package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"gsched"
	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/progen"
	"gsched/internal/xform"
)

// cli_huge: the gsched binary on one seeded progen.Huge program of about
// 100k instructions — batch compilation at scale, where parse, rename,
// PDG, region, local, the §6 transforms and print do nearly all the
// work. Every option that changes the work is pinned on the command
// line so a change of CLI defaults cannot change the workload.
func hugeArgs(path string, jobs int, verify bool) []string {
	return []string{"-lang", "asm", "-level", "speculative", "-machine", "rs6k",
		"-pipeline=true", "-verify=" + strconv.FormatBool(verify),
		"-jobs", strconv.Itoa(jobs), "-print", path}
}

func hugeSize(cfg *config) int {
	if cfg.tiny {
		return 3000
	}
	return 100_000
}

// invocation is one finished child process.
type invocation struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxrss int64         // KiB
	sum    [sha256.Size]byte
}

// invoke runs bin with args, draining and hashing its standard output.
// corrupt flips the first output byte before hashing (self-test fault).
//
// The child is started by a fresh copy of this program (see runSpawner),
// which times it and reports its rusage: Linux folds the spawning
// process's peak RSS into a child's ru_maxrss, so spawning from this
// process, whose heap holds the generated input, would report the
// benchmark's memory instead of gsched's.
func invoke(bin string, args []string, corrupt bool) (invocation, error) {
	var inv invocation
	self, err := os.Executable()
	if err != nil {
		return inv, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return inv, err
	}
	defer pr.Close()
	cmd := exec.Command(self, append([]string{bin}, args...)...)
	cmd.Env = append(os.Environ(), spawnEnv+"=1")
	cmd.ExtraFiles = []*os.File{pw}
	cmd.SysProcAttr = orphanKill()
	h := sha256.New()
	var w io.Writer = h
	if corrupt {
		w = &flipFirst{w: h}
	}
	cmd.Stdout = w
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Start()
	pw.Close()
	if err == nil {
		err = cmd.Wait()
	}
	if err != nil {
		return inv, fmt.Errorf("%s: %v: %s", filepath.Base(bin), err, bytes.TrimSpace(stderr.Bytes()))
	}
	report, err := io.ReadAll(pr)
	if err != nil {
		return inv, err
	}
	var wall, cpu int64
	if _, err := fmt.Sscan(string(report), &wall, &cpu, &inv.maxrss); err != nil {
		return inv, fmt.Errorf("spawner report %q: %v", report, err)
	}
	inv.wall, inv.cpu = time.Duration(wall), time.Duration(cpu)
	h.Sum(inv.sum[:0])
	return inv, nil
}

// spawnEnv marks a process started by invoke to run one child.
const spawnEnv = "PERFBENCH_SPAWN"

// runSpawner runs args as a child with this process's standard streams,
// then writes "<wall ns> <user+sys ns> <maxrss KiB>" of the child to
// file descriptor 3. It returns the child's exit code.
func runSpawner(args []string) int {
	report := os.NewFile(3, "report")
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = orphanKill()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: no rusage")
		return 1
	}
	fmt.Fprintf(report, "%d %d %d\n", int64(wall), ru.Utime.Nano()+ru.Stime.Nano(), ru.Maxrss)
	return cmd.ProcessState.ExitCode()
}

// orphanKill makes a child die with the process that started it, so no
// child outlives the benchmark, however the benchmark ends.
func orphanKill() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// flipFirst corrupts the first byte written through it.
type flipFirst struct {
	w    io.Writer
	done bool
}

func (f *flipFirst) Write(p []byte) (int, error) {
	if !f.done && len(p) > 0 {
		f.done = true
		q := append([]byte(nil), p...)
		q[0] ^= 1
		return f.w.Write(q)
	}
	return f.w.Write(p)
}

func runCLIHuge(cfg *config) (*result, error) {
	path := filepath.Join(cfg.work, "huge.s")
	bin := filepath.Join(cfg.bin, "gsched")
	args := hugeArgs(path, cfg.nproc, false)
	res := &result{}

	// The input is generated and written before set-up is timed:
	// progen only makes inputs and is not measured.
	gen := progen.Huge(cfg.seed, hugeSize(cfg))
	if err := os.WriteFile(path, []byte(gen.Source), 0o644); err != nil {
		return nil, err
	}
	// Set-up, setupRuns times: the first (untimed) invocation, which
	// pays the one-time costs.
	cal := &calibrator{par: cfg.nproc}
	var setups []float64
	var setupSums [][sha256.Size]byte
	for i := 0; i < setupRuns; i++ {
		if err := cal.round(); err != nil {
			return nil, err
		}
		start := time.Now()
		inv, err := invoke(bin, args, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupSums = append(setupSums, inv.sum)
	}
	// The reference output: sequential, with every schedule verified.
	ref, err := invoke(bin, hugeArgs(path, 1, true), false)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	for i, s := range setupSums {
		res.attempted++
		if s != ref.sum {
			res.failed++
			res.note("set-up invocation %d: output differs from the -jobs 1 -verify reference", i+1)
		}
	}
	res.note("input: %d functions, %d instructions; reference output sha256 %x", gen.Funcs, gen.Instrs, ref.sum[:8])

	if cfg.trace {
		return traceCLIHuge(cfg, res, gen, ref.sum)
	}

	var walls, cpus, rss []float64
	dl := cfg.deadline()
	for i := 0; i < 3 || time.Now().Before(dl); i++ {
		if err := cal.round(); err != nil {
			return nil, err
		}
		res.attempted++
		inv, err := invoke(bin, args, cfg.inject && i == 0)
		switch {
		case err != nil:
			res.failed++
			res.note("invocation %d failed: %v", res.attempted, err)
			continue
		case inv.sum != ref.sum:
			res.failed++
			res.note("invocation %d: output sha256 %x differs from the reference", res.attempted, inv.sum[:8])
			continue
		}
		walls = append(walls, inv.wall.Seconds())
		cpus = append(cpus, inv.cpu.Seconds())
		rss = append(rss, float64(inv.maxrss)/1024)
	}
	cal.note(res)
	res.addSetup(setups, cal)
	if len(walls) > 0 {
		res.note("raw wall per invocation: p25 %.1f, p50 %.1f, p75 %.1f ms; %.0f input instr/s at p50; raw CPU p50 %.1f ms",
			1000*quantile(walls, 0.25), 1000*median(walls), 1000*quantile(walls, 0.75), float64(gen.Instrs)/median(walls), 1000*median(cpus))
		res.add("wall_ms", "ms", 1000*median(walls)*cal.wallScale(), len(walls))
		res.add("cpu_ms", "ms", 1000*median(cpus)*cal.cpuScale(), len(cpus))
		res.add("peak_rss_mib", "MiB", median(rss), len(rss))
	}
	return res, nil
}

// hugeTrace collects the per-layer times of one traced in-process pass.
type hugeTrace struct {
	prescan, parse, run, print time.Duration
	phases                     core.Trace
}

// hugePass runs the CLI's per-function pipeline sequentially in
// process: asm.NewReader (prescan) → ParseFunc → xform.RunCtx → append
// printing, hashing the output. With tr nil nothing is timed inside.
func hugePass(src string, opts core.Options, tr *hugeTrace) (wall time.Duration, sum [sha256.Size]byte,
	st xform.Stats, funcs, instrs int, err error) {

	var sink hugeTrace
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
	pcfg := gsched.DefaultPipeline()
	h := sha256.New()
	start := time.Now()

	var r *asm.Reader
	timed(&acc.prescan, func() { r, err = asm.NewReader(src) })
	if err != nil {
		return
	}
	var buf []byte
	for _, s := range r.Prog().Syms {
		buf = s.AppendString(buf)
	}
	h.Write(buf)
	for {
		var f *ir.Func
		timed(&acc.parse, func() { f, err = r.ParseFunc() })
		if err == io.EOF {
			err = nil
			break
		}
		if err != nil {
			return
		}
		funcs++
		instrs += f.NumInstrs()

		var fst xform.Stats
		timed(&acc.run, func() { fst, err = xform.RunCtx(context.Background(), f, opts, pcfg) })
		if err != nil {
			return
		}
		st.Stats.Add(fst.Stats)
		st.LoopsUnrolled += fst.LoopsUnrolled
		st.LoopsRotated += fst.LoopsRotated

		timed(&acc.print, func() { buf = f.AppendString(buf[:0]) })
		h.Write(buf)
	}
	wall = time.Since(start)
	h.Sum(sum[:0])
	return
}

// hugeAllocs counts heap allocations of the parse and of the pipeline
// runs, each per input instruction, in one untraced sequential pass.
func hugeAllocs(src string, opts core.Options) (parse, run float64, err error) {
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r, err := asm.NewReader(src)
	if err != nil {
		return 0, 0, err
	}
	var fs []*ir.Func
	instrs := 0
	for {
		f, err := r.ParseFunc()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		fs = append(fs, f)
		instrs += f.NumInstrs()
	}
	runtime.ReadMemStats(&m1)
	pcfg := gsched.DefaultPipeline()
	for _, f := range fs {
		if _, err := xform.RunCtx(context.Background(), f, opts, pcfg); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m2)
	n := float64(instrs)
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m2.Mallocs-m1.Mallocs) / n, nil
}

func traceCLIHuge(cfg *config, res *result, gen *progen.HugeProgram, want [sha256.Size]byte) (*result, error) {
	opts := gsched.Defaults(gsched.RS6K(), gsched.LevelSpeculative)
	opts.Verify = false
	opts.Parallelism = 1

	var untraced, traced []float64
	var layers samples
	var st xform.Stats
	var funcs, instrs int
	check := func(sum [sha256.Size]byte, err error) bool {
		res.attempted++
		if err == nil && sum != want {
			err = fmt.Errorf("in-process output sha256 %x differs from the CLI's", sum[:8])
		}
		if err != nil {
			res.failed++
			res.note("traced pass %d: %v", res.attempted, err)
			return false
		}
		return true
	}
	untracedPass := func() {
		wall, sum, _, _, _, err := hugePass(gen.Source, opts, nil)
		if check(sum, err) {
			untraced = append(untraced, ms(wall))
		}
	}
	tracedPass := func() {
		tr := &hugeTrace{}
		wall, sum, pst, pfuncs, pinstrs, err := hugePass(gen.Source, opts, tr)
		if !check(sum, err) {
			return
		}
		st, funcs, instrs = pst, pfuncs, pinstrs
		traced = append(traced, ms(wall))
		layers.add("asm.prescan_ms", ms(tr.prescan))
		layers.add("asm.parse_ms", ms(tr.parse))
		phases := layers.addPhases(&tr.phases)
		layers.add("xform.run_ms", ms(tr.run))
		layers.add("xform.untraced_ms", ms(tr.run)-phases)
		layers.add("asm.print_ms", ms(tr.print))
		layers.add("untraced_ms", ms(wall)-ms(tr.prescan+tr.parse+tr.run+tr.print))
	}
	// Untraced and traced passes alternate, each going first in every
	// other round, so drift and ordering effects hit both alike.
	dl := cfg.deadline()
	for round := 0; round < 3 || time.Now().Before(dl); round++ {
		if round%2 == 0 {
			untracedPass()
			tracedPass()
		} else {
			tracedPass()
			untracedPass()
		}
	}
	parseAllocs, runAllocs, err := hugeAllocs(gen.Source, opts)
	if err != nil {
		return nil, err
	}
	n := len(traced)
	layers.report(res, "ms")
	res.add("trace.overhead_pct", "%", 100*(median(traced)/median(untraced)-1), n)
	res.add("asm.parse_allocs_per_instr", "allocs/instr", parseAllocs, 1)
	res.add("xform.run_allocs_per_instr", "allocs/instr", runAllocs, 1)
	res.add("stream.funcs", "count", float64(funcs), n)
	res.add("stream.instrs", "count", float64(instrs), n)
	addMoveCounts(res, st, n)
	res.add("xform.loops_unrolled", "count", float64(st.LoopsUnrolled), n)
	res.add("xform.loops_rotated", "count", float64(st.LoopsRotated), n)
	return res, nil
}

// addMoveCounts reports the scheduler's deterministic counters.
func addMoveCounts(res *result, st xform.Stats, n int) {
	res.add("rename.webs", "count", float64(st.RenamedWebs), n)
	res.add("core.regions_scheduled", "count", float64(st.RegionsScheduled), n)
	res.add("core.useful_moves", "count", float64(st.UsefulMoves), n)
	res.add("core.speculative_moves", "count", float64(st.SpeculativeMoves), n)
}
