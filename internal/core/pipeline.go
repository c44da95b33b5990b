package core

import (
	"context"
	"fmt"
	"sync"

	"gsched/internal/cfg"
	"gsched/internal/dataflow"
	"gsched/internal/ir"
	"gsched/internal/pdg"
)

// pipeline is the per-worker scratch arena of the scheduling pipeline.
// One pipeline serves one goroutine at a time; callers take one from
// pipelinePool for the duration of a function (or region) and put it
// back, so a steady stream of ScheduleProgramCtx calls reuses the same
// DDG arenas, liveness bitsets, candidate storage, ready lists, and
// local-scheduler buffers instead of reallocating them per region.
type pipeline struct {
	live dataflow.Analyzer
	ddgb *pdg.Builder

	// Dense per-instruction tables, indexed by ir.Instr.ID.
	scheduled []bool
	cycleOf   []int
	blockOf   []int
	pos       []int
	// Dense per-block tables.
	own       []bool
	processed []bool
	// Session scratch.
	done     []bool
	cands    []*candidate
	ready    []*candidate
	viable   []*candidate
	newOrder []*ir.Instr
	dupJoins []int

	// Candidate arena: chunked so pointers stay stable while it grows.
	candChunks [][]candidate
	candChunk  int
	candUsed   int

	// Per-block priority caches, invalidated by bumping stamp (which
	// only ever increases, so stale entries from earlier regions or
	// functions can never match). maxCP caches the per-block maximum
	// critical path for the policy slack feature; it is only filled
	// when a policy is installed.
	heights     []pdg.HeightVals
	heightStamp []int
	maxCP       []int
	maxCPStamp  []int
	stamp       int

	local localScratch
}

var pipelinePool = sync.Pool{
	New: func() any { return &pipeline{ddgb: pdg.NewBuilder()} },
}

func getPipeline() *pipeline   { return pipelinePool.Get().(*pipeline) }
func putPipeline(pl *pipeline) { pipelinePool.Put(pl) }

// grown returns s resized to n elements, all zero. The backing array is
// reused when it is large enough.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeNoClear returns s resized to n elements, keeping existing
// elements (so e.g. HeightVals rows retain their allocated arrays).
func resizeNoClear[T any](s []T, n int) []T {
	if cap(s) < n {
		s2 := make([]T, n)
		copy(s2, s)
		return s2
	}
	return s[:n]
}

const candChunkSize = 128

func (pl *pipeline) resetCands() { pl.candChunk, pl.candUsed = 0, 0 }

// newCand hands out a candidate from the arena. Chunks are fixed-size so
// earlier pointers survive growth.
func (pl *pipeline) newCand() *candidate {
	if pl.candChunk < len(pl.candChunks) && pl.candUsed == candChunkSize {
		pl.candChunk++
		pl.candUsed = 0
	}
	if pl.candChunk == len(pl.candChunks) {
		pl.candChunks = append(pl.candChunks, make([]candidate, candChunkSize))
	}
	c := &pl.candChunks[pl.candChunk][pl.candUsed]
	pl.candUsed++
	return c
}

// scheduleRegion schedules one region on this pipeline's arenas.
func (pl *pipeline) scheduleRegion(f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo, r *cfg.Region,
	opts *Options, st *Stats) error {

	donePDG := opts.Trace.TimePhase(PhasePDG)
	p, err := pdg.BuildWith(pl.ddgb, f, g, li, r, opts.Machine)
	donePDG()
	if err != nil {
		return err
	}
	n := f.NumInstrIDs()
	nb := len(f.Blocks)
	pl.scheduled = grown(pl.scheduled, n)
	pl.cycleOf = grown(pl.cycleOf, n)
	pl.blockOf = grown(pl.blockOf, n)
	pl.pos = regionPositions(pl.pos, f, r)
	pl.own = grown(pl.own, nb)
	pl.processed = grown(pl.processed, nb)
	pl.heights = resizeNoClear(pl.heights, nb)
	pl.heightStamp = resizeNoClear(pl.heightStamp, nb)
	pl.maxCP = resizeNoClear(pl.maxCP, nb)
	pl.maxCPStamp = resizeNoClear(pl.maxCPStamp, nb)
	rs := &regionScheduler{
		f: f, g: g, p: p, opts: opts, st: st, pl: pl,
		scheduled: pl.scheduled,
		cycleOf:   pl.cycleOf,
		blockOf:   pl.blockOf,
		pos:       pl.pos,
		own:       pl.own,
		processed: pl.processed,
	}
	doneRun := opts.Trace.TimePhase(PhaseRegion)
	rs.run()
	doneRun()
	// Duplication may have grown the ID-indexed tables; keep the larger
	// backing for the next region.
	pl.scheduled, pl.cycleOf, pl.blockOf, pl.pos = rs.scheduled, rs.cycleOf, rs.blockOf, rs.pos
	st.RegionsScheduled++
	return nil
}

// regionPositions fills pos (ID-indexed, resized as needed) with the
// rank of each of the region's instructions in the current layout, for
// the §5.2 final tie-break ("pick an instruction that occurred in the
// code first"). Ranks are region-relative: candidates compared in a
// session all live in the region, and region blocks are visited in
// layout order, so relative order — the only thing the tie-break reads —
// matches whole-function positions while walking only the region's
// blocks.
func regionPositions(pos []int, f *ir.Func, r *cfg.Region) []int {
	pos = grown(pos, f.NumInstrIDs())
	n := 0
	for _, bi := range r.Blocks {
		for _, i := range f.Blocks[bi].Instrs {
			pos[i.ID] = n
			n++
		}
	}
	return pos
}

// ScheduleRegionTree schedules every region of the tree selected by keep
// (given the region and its nesting height), children before parents
// and the root last, honouring the size caps in opts. A nil keep
// selects regions below opts.MaxRegionLevels, counting the rest as
// skipped (the §6 configuration used by ScheduleFunc); a non-nil keep
// makes skipping silent, as the xform pipeline's pass filters expect.
func ScheduleRegionTree(ctx context.Context, f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo,
	opts *Options, st *Stats, keep func(r *cfg.Region, height int) bool) error {

	pl := getPipeline()
	defer putPipeline(pl)
	return scheduleRegionTree(ctx, pl, f, g, li, opts, st, keep)
}

func scheduleRegionTree(ctx context.Context, pl *pipeline, f *ir.Func, g *cfg.Graph, li *cfg.LoopInfo,
	opts *Options, st *Stats, keep func(r *cfg.Region, height int) bool) error {

	heights := cfg.RegionHeights(li.Root)
	var walk func(r *cfg.Region) error
	walk = func(r *cfg.Region) error {
		for _, in := range r.Inner {
			if err := walk(in); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: schedule cancelled: %w", err)
		}
		h := heights[r]
		if keep != nil {
			if !keep(r, h) {
				return nil
			}
		} else if h >= opts.MaxRegionLevels {
			st.RegionsSkipped++
			return nil
		}
		if opts.MaxRegionBlocks > 0 && len(r.Blocks) > opts.MaxRegionBlocks {
			st.RegionsSkipped++
			return nil
		}
		if opts.MaxRegionInstrs > 0 {
			n := 0
			for _, b := range r.Blocks {
				n += len(f.Blocks[b].Instrs)
			}
			if n > opts.MaxRegionInstrs {
				st.RegionsSkipped++
				return nil
			}
		}
		if err := pl.scheduleRegion(f, g, li, r, opts, st); err != nil {
			st.RegionsSkipped++
		}
		return nil
	}
	return walk(li.Root)
}
