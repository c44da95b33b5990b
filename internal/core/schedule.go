package core

import (
	"context"
	"fmt"

	"gsched/internal/cfg"
	"gsched/internal/ir"
	"gsched/internal/rename"
)

// ScheduleFunc runs the full scheduling pipeline on one function:
// optional register renaming, global scheduling of every eligible region
// (innermost first), and the basic block post-pass.
func ScheduleFunc(f *ir.Func, opts Options) (Stats, error) {
	return ScheduleFuncCtx(context.Background(), f, opts)
}

// ScheduleFuncCtx is ScheduleFunc under a context. Cancellation is
// checked between phases and between regions, so a timed-out schedule
// returns promptly with an error wrapping ctx.Err(); the function may
// be left partially scheduled (still legal code — every completed
// motion is legal on its own — but not the final schedule).
func ScheduleFuncCtx(ctx context.Context, f *ir.Func, opts Options) (Stats, error) {
	var st Stats
	if opts.Machine == nil {
		return st, fmt.Errorf("core: Options.Machine is required")
	}
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("core: schedule cancelled: %w", err)
	}
	g := cfg.Build(f)

	pl := getPipeline()
	defer putPipeline(pl)

	if opts.Rename {
		done := opts.Trace.TimePhase(PhaseRename)
		st.RenamedWebs = rename.Run(f, g)
		done()
	}

	vb := opts.BeginVerify(f)

	if opts.Level > LevelNone {
		li := cfg.FindLoops(g)
		if !li.Irreducible {
			if err := scheduleRegionTree(ctx, pl, f, g, li, &opts, &st, nil); err != nil {
				return st, err
			}
		} else {
			st.RegionsSkipped++
		}
	}

	if opts.LocalPass {
		if err := ctx.Err(); err != nil {
			return st, fmt.Errorf("core: schedule cancelled: %w", err)
		}
		done := opts.Trace.TimePhase(PhaseLocal)
		for _, b := range f.Blocks {
			pl.scheduleBlockLocal(b, opts.Machine, opts.Policy)
			st.LocalBlocks++
		}
		done()
	}

	if opts.Level >= LevelOptimal {
		done := opts.Trace.TimePhase(PhaseExact)
		err := ExactPassCtx(ctx, f, &opts, &st)
		done()
		if err != nil {
			return st, err
		}
	}

	if err := vb.Check(f, opts.VerifyRules(), opts.Trace); err != nil {
		return st, fmt.Errorf("core: illegal schedule: %w", err)
	}
	return st, nil
}

// ScheduleProgram schedules every function of p. Functions are
// independent compilation units, so with opts.Parallelism > 1 they are
// scheduled concurrently by RunFuncs. Results are deterministic either
// way: each function's schedule depends only on that function, and
// per-function Stats are merged in program order.
func ScheduleProgram(p *ir.Program, opts Options) (Stats, error) {
	return ScheduleProgramCtx(context.Background(), p, opts)
}

// ScheduleProgramCtx is ScheduleProgram under a context: per-request
// timeouts and cancellation propagate into every function's schedule.
func ScheduleProgramCtx(ctx context.Context, p *ir.Program, opts Options) (Stats, error) {
	var st Stats
	err := RunFuncs(ctx, opts.Parallelism, FuncsOf(p), func(f *ir.Func) (Stats, error) {
		return ScheduleNamed(ctx, f, opts)
	}, func(s Stats) error {
		st.Add(s)
		return nil
	})
	return st, err
}

// ScheduleNamed is ScheduleFuncCtx with the function's name on its
// error, the labelling every program driver reports.
func ScheduleNamed(ctx context.Context, f *ir.Func, opts Options) (Stats, error) {
	st, err := ScheduleFuncCtx(ctx, f, opts)
	if err != nil {
		err = fmt.Errorf("%s: %w", f.Name, err)
	}
	return st, err
}

// ScheduleRegion schedules one region with the global framework, on a
// pooled pipeline with whole-function liveness. It is exported for
// callers that schedule single regions outside the tree walk (e.g. the
// minmax evaluation experiments).
func ScheduleRegion(f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo, r *cfg.Region, opts *Options, st *Stats) error {
	pl := getPipeline()
	defer putPipeline(pl)
	return pl.scheduleRegion(f, g, li, r, opts, st)
}
