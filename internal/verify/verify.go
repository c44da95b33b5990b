// Package verify is an independent static legality checker for global
// instruction scheduling. It snapshots a function before scheduling and
// afterwards re-derives, from the ir alone, everything needed to decide
// whether the schedule is legal under the rules of §3 of the paper:
//
//   - every instruction is accounted for — none lost, none appearing
//     twice, none altered, terminators still terminate their blocks;
//   - every data dependence (flow/anti/output on registers, conservative
//     memory disambiguation) still executes in order on every path;
//   - every cross-block motion is classified and validated: useful
//     motion only between equivalent blocks (Definitions 3–5),
//     speculative motion within the configured branch depth and never an
//     instruction that stores, calls or may fault (Definition 7), with
//     the §5.3 rule that the moved definition must not clobber a
//     register observed on off-paths; duplicated motion must cover every
//     predecessor of the join exactly once (Definition 6);
//   - no instruction changes its loop (region) membership.
//
// The verifier shares no analysis code with internal/pdg or internal/cfg:
// dominators, postdominators, control dependences, natural loops and the
// dependence relation are all derived here from first principles, so it
// serves as a second, independent oracle next to differential simulation.
package verify

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"gsched/internal/ir"
)

// Rules configures which motions the checked schedule was allowed to
// perform; it mirrors the scheduling options the transformation ran
// under.
type Rules struct {
	// CrossBlock permits cross-block motion at all (false for pure
	// basic-block scheduling).
	CrossBlock bool
	// MaxSpecDepth is the maximum number of conditional branches a
	// speculative motion may gamble on (0 disables speculation).
	MaxSpecDepth int
	// SpeculateLoads permits loads to move speculatively.
	SpeculateLoads bool
	// AllowDuplication permits motion with duplication into join
	// predecessors.
	AllowDuplication bool
}

// Violation describes one broken legality rule with enough context to
// debug it: the rule, the instruction, and the blocks/edge involved.
type Violation struct {
	Func  string
	Rule  string
	ID    int    // instruction ID, -1 when not instruction-specific
	Instr string // rendered instruction, "" when not instruction-specific
	Msg   string
}

func (v Violation) String() string {
	if v.ID >= 0 {
		return fmt.Sprintf("%s: [%s] id %d %q: %s", v.Func, v.Rule, v.ID, v.Instr, v.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", v.Func, v.Rule, v.Msg)
}

// Error aggregates every violation found in one function.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violation(s)", len(e.Violations))
	for i, v := range e.Violations {
		if i == 12 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// place locates an instruction: block index and position within it.
type place struct{ block, pos int }

// Snapshot is a deep copy of a function's instruction layout taken
// before scheduling. Scheduling moves instructions but never blocks, so
// the snapshot and the scheduled function share one flow graph.
type Snapshot struct {
	FuncName string
	labels   []string
	start    []int      // block b holds instrs[start[b]:start[b+1]]
	instrs   []ir.Instr // pre-schedule instructions by value, in layout order
	home     []place    // layout index -> pre-schedule location
	at       []int32    // instruction ID -> layout index, -1 when absent
}

// Capture records the current layout of f. Instruction IDs are dense
// per function (ir.Func allocates them from 0), so every table the
// verifier keeps is a slice indexed by ID or by layout position.
func Capture(f *ir.Func) *Snapshot {
	n, maxID, nMem, nArgs := 0, -1, 0, 0
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			n++
			maxID = max(maxID, ins.ID)
			if ins.Mem != nil {
				nMem++
			}
			nArgs += len(ins.CallArgs)
		}
	}
	s := &Snapshot{
		FuncName: f.Name,
		labels:   make([]string, len(f.Blocks)),
		start:    make([]int, len(f.Blocks)+1),
		instrs:   make([]ir.Instr, n),
		home:     make([]place, n),
		at:       make([]int32, maxID+1),
	}
	for i := range s.at {
		s.at[i] = -1
	}
	// Memory operands and call arguments are copied into two shared
	// backing arrays, so the snapshot stays independent of later edits.
	mems := make([]ir.Mem, 0, nMem)
	args := make([]ir.Reg, 0, nArgs)
	i := 0
	for bi, b := range f.Blocks {
		s.labels[bi] = b.Label
		s.start[bi] = i
		for pi, ins := range b.Instrs {
			c := &s.instrs[i]
			*c = *ins
			if ins.Mem != nil {
				mems = append(mems, *ins.Mem)
				c.Mem = &mems[len(mems)-1]
			}
			if ins.CallArgs != nil {
				k := len(args)
				args = append(args, ins.CallArgs...)
				c.CallArgs = args[k:len(args):len(args)]
			}
			s.home[i] = place{bi, pi}
			s.at[ins.ID] = int32(i)
			i++
		}
	}
	s.start[len(f.Blocks)] = n
	return s
}

// instr returns the snapshot instruction with the given ID, or nil.
func (s *Snapshot) instr(id int) *ir.Instr {
	if id < 0 || id >= len(s.at) || s.at[id] < 0 {
		return nil
	}
	return &s.instrs[s.at[id]]
}

// checkers pools the checker state, every dense table and analysis
// scratch array included, so back-to-back checks reuse one set of
// arrays instead of allocating their own.
var checkers = sync.Pool{New: func() any { return new(checker) }}

// Check validates the scheduled function f against its pre-schedule
// snapshot under the given rules. It returns nil for a legal schedule
// and an *Error listing every violation otherwise.
func Check(snap *Snapshot, f *ir.Func, rules Rules) error {
	c := checkers.Get().(*checker)
	c.snap, c.f, c.rules, c.vs = snap, f, rules, nil
	if c.structure() {
		c.an.analyze(f)
		c.ix.build(snap)
		c.accounting()
		c.motions()
		forEachDep(snap, &c.an, &c.ix, c.checkDep)
	}
	var err error
	if len(c.vs) > 0 {
		err = &Error{Violations: c.vs}
	}
	clear(c.finalInstr) // hold no pointers into f while pooled
	c.snap, c.f, c.vs = nil, nil, nil
	checkers.Put(c)
	return err
}

type checker struct {
	snap  *Snapshot
	f     *ir.Func
	rules Rules
	an    analysis
	ix    regIndex

	// Dense state indexed by instruction ID.
	final      []place     // scheduled location, block -1 when absent
	finalInstr []*ir.Instr // scheduled instruction
	origin     []int32     // duplicate copy -> snapshot ID it copies, -1 otherwise
	dupGroup   []bool      // snapshot IDs verified as duplication groups
	placements rel[place]  // snapshot ID -> its location, then its copies'

	// Scratch.
	extras                       []int
	placed                       []entry[place]
	bools                        []bool
	gen, kill, seen, cover, done []bool
	stack                        []int

	vs []Violation
}

func (c *checker) violate(rule string, ins *ir.Instr, format string, args ...interface{}) {
	v := Violation{Func: c.snap.FuncName, Rule: rule, ID: -1, Msg: fmt.Sprintf(format, args...)}
	if ins != nil {
		v.ID = ins.ID
		v.Instr = ins.String()
	}
	c.vs = append(c.vs, v)
}

// structure checks that the block skeleton is untouched: scheduling may
// only permute and move instructions, never blocks. Returns false when
// the skeletons are incomparable and no further checking is possible.
func (c *checker) structure() bool {
	if c.f.Name != c.snap.FuncName {
		c.violate("structure", nil, "function %q checked against snapshot of %q", c.f.Name, c.snap.FuncName)
		return false
	}
	if len(c.f.Blocks) != len(c.snap.labels) {
		c.violate("structure", nil, "block count changed: %d -> %d", len(c.snap.labels), len(c.f.Blocks))
		return false
	}
	for bi, b := range c.f.Blocks {
		if b.Label != c.snap.labels[bi] {
			c.violate("structure", nil, "block %d label changed: %q -> %q", bi, c.snap.labels[bi], b.Label)
			return false
		}
	}
	return true
}

// accounting indexes the scheduled layout, pairs every surviving
// instruction with its snapshot, matches extra instructions to the
// originals they duplicate, and checks that terminators stayed put.
func (c *checker) accounting() {
	n := len(c.snap.at)
	for _, b := range c.f.Blocks {
		for _, ins := range b.Instrs {
			n = max(n, ins.ID+1)
		}
	}
	c.final = grow(c.final, n)
	c.finalInstr = grow(c.finalInstr, n)
	c.origin = grow(c.origin, n)
	c.dupGroup = grow(c.dupGroup, n)
	for id := range c.final {
		c.final[id].block = -1
		c.origin[id] = -1
	}
	for bi, b := range c.f.Blocks {
		for pi, ins := range b.Instrs {
			if prev := c.final[ins.ID]; prev.block >= 0 {
				c.violate("accounting", ins, "instruction ID appears twice (blocks %d and %d)", prev.block, bi)
				continue
			}
			c.final[ins.ID] = place{bi, pi}
			c.finalInstr[ins.ID] = ins
		}
	}
	for id := range c.snap.at {
		if s := c.snap.instr(id); s != nil && c.final[id].block < 0 {
			c.violate("accounting", s, "instruction lost by scheduling")
		}
	}
	extras := c.extras[:0]
	for id, ins := range c.finalInstr {
		if ins == nil {
			continue
		}
		if s := c.snap.instr(id); s == nil {
			extras = append(extras, id)
		} else if !sameInstr(s, ins) {
			c.violate("accounting", s, "instruction altered by scheduling: now %q", ins.String())
		}
	}
	c.extras = extras
	var bySig map[string][]int
	if len(extras) > 0 {
		bySig = make(map[string][]int)
		for id := range c.snap.at {
			if s := c.snap.instr(id); s != nil {
				sig := s.String()
				bySig[sig] = append(bySig[sig], id) // sorted-id order: deterministic
			}
		}
	}
	for _, e := range extras {
		ins := c.finalInstr[e]
		// Several snapshot instructions can share a printed form (loop
		// unrolling clones whole bodies), so score each candidate by how
		// well it fits the duplication shape instead of taking the first
		// textual match: only an original whose home is a join can have
		// copies at all, and a true copy sits in a predecessor of that
		// join (or strictly upstream, when a later session hoisted it).
		best, bestScore := -1, 0
		for _, cand := range bySig[ins.String()] {
			if c.final[cand].block < 0 {
				continue // the original itself was lost; do not pair
			}
			if s := c.matchScore(e, cand); s > bestScore {
				best, bestScore = cand, s
			}
		}
		if best < 0 {
			c.violate("accounting", ins, "unknown instruction introduced by scheduling")
			continue
		}
		c.origin[e] = int32(best)
	}
	// Each snapshot instruction's placements: its own location, then
	// those of the extras copying it in ascending ID order.
	placed := c.placed[:0]
	for id, at := range c.snap.at {
		if at >= 0 && c.final[id].block >= 0 {
			placed = append(placed, entry[place]{id, c.final[id]})
		}
	}
	for _, e := range extras {
		if o := c.origin[e]; o >= 0 {
			placed = append(placed, entry[place]{int(o), c.final[e]})
		}
	}
	fill(&c.placements, len(c.final), placed)
	c.placed = placed
	// Terminators stay the last instruction of their block.
	for bi, b := range c.f.Blocks {
		snapTerm, finalTerm := -1, -1
		if lo, hi := c.snap.start[bi], c.snap.start[bi+1]; hi > lo {
			if last := &c.snap.instrs[hi-1]; last.Op.IsTerminator() {
				snapTerm = last.ID
			}
		}
		if t := b.Terminator(); t != nil {
			finalTerm = t.ID
		}
		if snapTerm != finalTerm {
			c.violate("terminator", nil, "block %d (%s) terminator changed: id %d -> id %d",
				bi, b.Label, snapTerm, finalTerm)
		}
	}
}

// matchScore ranks snapshot instruction cand as the original of extra
// copy e: 3 when e sits in a predecessor of cand's home join, 2 when it
// sits strictly upstream of that join, 1 as a last resort, ties broken
// by the caller's ascending candidate order.
func (c *checker) matchScore(e, cand int) int {
	J := c.snap.home[c.snap.at[cand]].block
	fb := c.final[e].block
	if len(c.an.preds.row(J)) >= 2 {
		if slices.Contains(c.an.preds.row(J), fb) {
			return 3
		}
		if fb != J && c.an.forwardReach(fb, J) {
			return 2
		}
	}
	return 1
}

// motions classifies and validates every cross-block motion.
func (c *checker) motions() {
	nb := len(c.f.Blocks)
	c.bools = grow(c.bools, 5*nb)
	b := c.bools
	c.gen, c.kill, c.seen, c.cover, c.done = b[:nb], b[nb:2*nb], b[2*nb:3*nb], b[3*nb:4*nb], b[4*nb:]
	for id, at := range c.snap.at {
		if at < 0 {
			continue
		}
		fin := c.final[id]
		if fin.block < 0 {
			continue // already reported as lost
		}
		home := c.snap.home[at]
		if len(c.placements.row(id)) > 1 {
			c.checkDuplication(id)
			continue
		}
		if fin.block != home.block {
			c.classifyMotion(id, home, fin)
		}
	}
}

// classifyMotion validates a single-copy motion from home to fin as
// either useful (equivalent blocks) or speculative (§3's n-branch
// motion).
func (c *checker) classifyMotion(id int, home, fin place) {
	ins := c.snap.instr(id)
	H, B := home.block, fin.block
	c.an.motionFacts()
	if ins.Op.NeverMoves() {
		c.violate("pinned", ins, "instruction of this opcode may never move (block %d -> %d)", H, B)
		return
	}
	if !c.rules.CrossBlock {
		c.violate("cross-block", ins, "cross-block motion is disabled at this level (block %d -> %d)", H, B)
		return
	}
	if !c.an.reach.has(H) || !c.an.reach.has(B) {
		c.violate("cross-block", ins, "motion involving unreachable block (block %d -> %d)", H, B)
		return
	}
	if c.an.cyclic {
		c.violate("cross-block", ins, "cross-block motion in an irreducible flow graph (block %d -> %d)", H, B)
		return
	}
	if !c.an.sameLoops(H, B) {
		c.violate("region", ins, "motion changes loop membership (block %d -> %d)", H, B)
		return
	}
	if c.an.equivalent(B, H) && c.an.dominates(B, H) {
		return // useful motion between equivalent blocks
	}
	if !c.an.dominates(B, H) {
		c.violate("useful", ins,
			"destination block %d neither dominates nor is equivalent to home block %d", B, H)
		return
	}
	// Speculative motion: B dominates H but H does not postdominate B.
	if c.rules.MaxSpecDepth < 1 {
		c.violate("speculative", ins, "speculative motion is disabled (block %d -> %d)", H, B)
		return
	}
	if ins.Op.NeverSpeculates() {
		c.violate("speculative", ins,
			"instruction may not execute speculatively (stores/calls/faulting ops; block %d -> %d)", H, B)
		return
	}
	if ins.Op.IsLoad() && !c.rules.SpeculateLoads {
		c.violate("speculative", ins, "speculative loads are disabled (block %d -> %d)", H, B)
		return
	}
	d := c.an.specDepth(B, H)
	if d < 1 {
		c.violate("speculative", ins,
			"home block %d is not a speculative candidate of block %d", H, B)
		return
	}
	if d > c.rules.MaxSpecDepth {
		c.violate("speculative", ins,
			"motion gambles on %d branches, limit is %d (block %d -> %d)", d, c.rules.MaxSpecDepth, H, B)
		return
	}
	c.checkOffPath(id, fin, H, "speculative")
}

// checkDuplication validates a duplication group (Definition 6): the
// original plus its copies must cover every predecessor of the home join
// exactly once, and each copy's definitions must be unobservable on
// paths that bypass the join.
func (c *checker) checkDuplication(id int) {
	ins := c.snap.instr(id)
	J := c.snap.home[c.snap.at[id]].block
	c.an.motionFacts()
	if !c.rules.CrossBlock || !c.rules.AllowDuplication {
		c.violate("duplication", ins, "duplication is disabled (join block %d)", J)
		return
	}
	if ins.Op.NeverMoves() || ins.Op.NeverSpeculates() {
		c.violate("duplication", ins, "instruction of this opcode may not be duplicated (join block %d)", J)
		return
	}
	if ins.Op.IsLoad() && !c.rules.SpeculateLoads {
		c.violate("duplication", ins, "speculative loads are disabled; copies run speculatively (join block %d)", J)
		return
	}
	if c.an.cyclic {
		c.violate("duplication", ins, "duplication in an irreducible flow graph (join block %d)", J)
		return
	}
	preds := c.an.preds.row(J)
	distinct := 0
	for k, p := range preds {
		if !slices.Contains(preds[:k], p) {
			distinct++
		}
	}
	if distinct < 2 {
		c.violate("duplication", ins, "home block %d is not a join (%d predecessors)", J, distinct)
		return
	}
	cover := c.cover
	clear(cover)
	for _, pl := range c.placements.row(id) {
		cover[pl.block] = true
	}
	// Copies may sit upstream of their predecessor: the session's own
	// instance lands in the session block, later sessions may hoist a
	// predecessor's copy further, and a copy sitting at a join of its own
	// may be re-duplicated into that join's predecessors. A copy may
	// also sit in J itself — the group then has an instance at the
	// original home, which every path entering J executes
	// non-speculatively (this arises when textually identical
	// instructions make the copy→original pairing ambiguous and an
	// unmoved original absorbs another join's copies). What must hold
	// is path coverage: every path entering J executes some copy on the
	// way, and the last copy executed is always correctly placed (earlier
	// ones are shadowed; join-bypassing executions are §5.3-checked
	// below). done[b] computes "every forward path reaching the end of b
	// has executed a copy" by structural induction over the forward graph.
	for b, covered := range cover {
		if !covered || b == J {
			continue // J: an instance at the home join itself
		}
		if !slices.Contains(preds, b) && !c.an.forwardReach(b, J) {
			c.violate("duplication", ins, "copy placed in block %d, not upstream of join %d", b, J)
			return
		}
		if !c.an.sameLoops(b, J) {
			c.violate("region", ins, "duplication crosses a loop boundary (block %d vs join %d)", b, J)
			return
		}
	}
	// A copy at J covers every entering path by itself; otherwise every
	// predecessor must be covered by the forward induction.
	if !cover[J] {
		done := c.done
		clear(done)
		for changed := true; changed; {
			changed = false
			for b := range done {
				if done[b] {
					continue
				}
				ok := cover[b]
				if !ok && len(c.an.fpreds.row(b)) > 0 {
					ok = true
					for _, p := range c.an.fpreds.row(b) {
						if !done[p] {
							ok = false
							break
						}
					}
				}
				if ok {
					done[b] = true
					changed = true
				}
			}
		}
		for _, p := range preds {
			if !done[p] {
				c.violate("duplication", ins, "predecessor block %d of join %d has no covering copy", p, J)
				return
			}
		}
	}
	c.dupGroup[id] = true
	for _, pl := range c.placements.row(id) {
		if pl.block == J {
			continue // executes exactly where the original did: never speculative
		}
		c.checkOffPath(id, pl, J, "duplication")
	}
}

// checkOffPath enforces §5.3: a definition executed speculatively at pl
// (home block H) must not clobber a value some use the original program
// did not feed from this instruction still observes. Liveness is taken
// from the snapshot with the live-in of H masked — in the snapshot every
// legitimate consumer sat at or beyond the instruction's original slot
// in H, so liveness that reaches the new position flowed around H and
// has an off-path observer. A snapshot use only counts as an observer if
// its own final placement is still strictly downstream of the moved
// definition: consumers that were hoisted above it (the scheduler
// re-checks liveness dynamically after every motion, §5.3) no longer
// read the clobbered register.
func (c *checker) checkOffPath(id int, pl place, H int, rule string) {
	ins := c.snap.instr(id)
	var defs [2]ir.Reg
	for _, r := range ins.Defs(defs[:0]) {
		if c.offPathLive(r, pl, H, id) {
			c.violate(rule, ins,
				"definition of %s is live on paths bypassing home block %d (clobbers an off-path value at block %d)",
				r, H, pl.block)
		}
	}
}

// offPathLive computes, on the snapshot program with block H masked and
// with observers restricted to uses still placed downstream of pl, the
// liveness of r just after position pl.pos of final block pl.block.
func (c *checker) offPathLive(r ir.Reg, pl place, H int, id int) bool {
	// Uses and kills between the new position and the end of its block
	// are taken from the final layout: anything placed after the moved
	// definition inside its block reads the new value directly. The
	// first that touches r decides.
	for _, j := range c.f.Blocks[pl.block].Instrs[pl.pos+1:] {
		if j.DefsReg(r) {
			return false
		}
		if j.UsesReg(r) && !c.snapConsumer(id, j.ID) {
			return true
		}
	}
	// Otherwise r is live out of the block when a path from one of its
	// successors reaches a use before any definition of r, never
	// entering H. Per-block gen and kill come from r's occurrence list
	// alone, which is in layout order: a use generates only while its
	// block has not yet defined r.
	gen, kill, seen := c.gen, c.kill, c.seen
	clear(gen)
	clear(kill)
	clear(seen)
	for _, o := range c.ix.occs.row(regKey(r)) { // r is indexed: the snapshot defines it
		b := c.snap.home[o.at].block
		if o.use && !kill[b] && !gen[b] && c.observesDownstream(c.snap.instrs[o.at].ID, pl) {
			gen[b] = true
		}
		if o.def {
			kill[b] = true
		}
	}
	live := false
	stack := append(c.stack[:0], c.an.succs.row(pl.block)...)
	for len(stack) > 0 && !live {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == H || seen[b] {
			continue // the home block is masked
		}
		seen[b] = true
		live = gen[b]
		if !kill[b] {
			stack = append(stack, c.an.succs.row(b)...)
		}
	}
	c.stack = stack
	return live
}

// observesDownstream reports whether snapshot use u still executes
// strictly downstream of the moved definition at pl in the final
// program. Same-block observers are excluded here; the caller walks the
// final block directly.
func (c *checker) observesDownstream(u int, pl place) bool {
	fp := c.final[u]
	if fp.block < 0 {
		return true // lost instruction: reported elsewhere, stay conservative
	}
	if fp.block == pl.block {
		return false
	}
	return c.an.forwardReach(pl.block, fp.block)
}

// snapConsumer reports whether, in the snapshot, instruction cons was a
// forward consumer of src: in the same block after it, or in a block
// reachable from src's home in the forward graph.
func (c *checker) snapConsumer(src, cons int) bool {
	if o := c.origin[cons]; o >= 0 {
		cons = int(o)
	}
	if c.snap.instr(src) == nil || c.snap.instr(cons) == nil {
		return false
	}
	sh, ch := c.snap.home[c.snap.at[src]], c.snap.home[c.snap.at[cons]]
	if sh.block == ch.block {
		return ch.pos > sh.pos
	}
	return c.an.forwardReach(sh.block, ch.block)
}

// checkDep verifies one snapshot dependence at every placement pair of
// its endpoints.
func (c *checker) checkDep(d dep) {
	from, to := c.snap.instr(d.From), c.snap.instr(d.To)
	for _, px := range c.placements.row(d.From) {
		for _, py := range c.placements.row(d.To) {
			if px.block == py.block {
				if px.pos >= py.pos {
					c.violate("dependence", from,
						"%s dependence%s on %q reordered within block %d",
						d.Kind, regSuffix(d), to.String(), px.block)
				}
				continue
			}
			// When both endpoints are duplication groups, the cross-block
			// pairs carry no constraint: every predecessor of the join
			// holds an ordered copy of the whole chain (checked above as
			// same-block pairs), and a path crossing two predecessors
			// re-executes the chain consistently in the later one.
			if c.dupGroup[d.From] && c.dupGroup[d.To] {
				continue
			}
			if c.an.forwardReach(px.block, py.block) {
				continue
			}
			if c.an.forwardReach(py.block, px.block) {
				// A copy of To placed upstream of From is shadowed: any
				// path that later reaches the join re-executes the copy in
				// its entering predecessor after From (coverage is exactly
				// once per predecessor, and same-block pairs order each
				// predecessor's copy against From directly). Paths that
				// bypass the join are duplication off-paths, covered by
				// the §5.3 liveness check.
				if c.dupGroup[d.To] {
					continue
				}
				c.violate("dependence", from,
					"%s dependence%s on %q reversed across blocks (%d vs %d)",
					d.Kind, regSuffix(d), to.String(), px.block, py.block)
				continue
			}
			// Parallel placements: legal only for duplication copies,
			// whose paths are disjoint from the other endpoint's.
			if c.dupGroup[d.From] || c.dupGroup[d.To] {
				continue
			}
			c.violate("dependence", from,
				"%s dependence%s on %q split onto parallel blocks (%d vs %d)",
				d.Kind, regSuffix(d), to.String(), px.block, py.block)
		}
	}
}

func regSuffix(d dep) string {
	if d.Kind == depMem {
		return ""
	}
	return " (" + d.Reg.String() + ")"
}

// sameInstr compares everything but the ID and comment.
func sameInstr(a, b *ir.Instr) bool {
	if a.Op != b.Op || a.Def != b.Def || a.Def2 != b.Def2 || a.A != b.A || a.B != b.B ||
		a.Imm != b.Imm || a.Target != b.Target || a.CRBit != b.CRBit || a.OnTrue != b.OnTrue {
		return false
	}
	if (a.Mem == nil) != (b.Mem == nil) {
		return false
	}
	if a.Mem != nil && *a.Mem != *b.Mem {
		return false
	}
	if len(a.CallArgs) != len(b.CallArgs) {
		return false
	}
	for i := range a.CallArgs {
		if a.CallArgs[i] != b.CallArgs[i] {
			return false
		}
	}
	return true
}
