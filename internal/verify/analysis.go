package verify

import (
	"math/bits"
	"slices"

	"gsched/internal/ir"
)

// The verifier re-derives every control-flow fact it needs from the ir
// alone, deliberately sharing no analysis code with internal/cfg or
// internal/pdg: dominators and postdominators are computed as explicit
// dominance *sets* by iterative dataflow (not the CHK tree algorithm the
// scheduler uses), control dependences are walked off the postdominance
// sets, and loop membership comes from natural-loop construction. A bug
// in the scheduler's analyses therefore cannot hide the same bug here.
//
// Every table lives in a slice the next check reuses (see grow), and
// every adjacency relation is a counted carve (rel), so a check in a
// steady stream of them allocates almost nothing.

// grow returns s resized to n zeroed elements, reusing its backing
// array when that is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bitset is a dense set of block numbers.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }

// setAll adds every element below n.
func (b bitset) setAll(n int) {
	for w := 0; w < n/64; w++ {
		b[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		b[n/64] |= 1<<uint(r) - 1
	}
}

// intersect replaces b with b ∩ o and reports whether b changed.
func (b bitset) intersect(o bitset) bool {
	changed := false
	for w := range b {
		changed = changed || b[w]&o[w] != b[w]
		b[w] &= o[w]
	}
	return changed
}

// union replaces b with b ∪ o and reports whether b changed.
func (b bitset) union(o bitset) bool {
	changed := false
	for w := range b {
		changed = changed || b[w]|o[w] != b[w]
		b[w] |= o[w]
	}
	return changed
}

// bitMatrix is one bitset row per block, carved from one array.
type bitMatrix struct {
	words []uint64
	w     int
}

func (m *bitMatrix) reset(rows, width int) {
	m.w = (width + 63) / 64
	m.words = grow(m.words, rows*m.w)
}

func (m *bitMatrix) row(i int) bitset { return m.words[i*m.w : (i+1)*m.w] }

// rel is a relation stored as a counted carve: row r holds
// vals[start[r]:start[r+1]].
type rel[V any] struct {
	start []int32
	vals  []V
}

func (r *rel[V]) row(i int) []V { return r.vals[r.start[i]:r.start[i+1]] }

// entry is one (row, value) pair of a relation under construction.
type entry[V any] struct {
	row int
	v   V
}

// fill rebuilds r over n rows from es, each row in entry order. With
// row i's count in start[i+2], the prefix sum leaves start[i+1] at row
// i's first slot, and filling advances it to row i's end.
func fill[V any](r *rel[V], n int, es []entry[V]) {
	r.start = grow(r.start, n+2)
	for _, e := range es {
		r.start[e.row+2]++
	}
	for i := 2; i < n+2; i++ {
		r.start[i] += r.start[i-1]
	}
	r.vals = grow(r.vals, len(es))
	for _, e := range es {
		r.vals[r.start[e.row+1]] = e.v
		r.start[e.row+1]++
	}
	r.start = r.start[:n+1]
}

// edge is one edge of a graph over blocks: row from, value to.
type edge = entry[int]

// fillGraph fills succs from es, then reverses es in place to fill preds.
func fillGraph(succs, preds *rel[int], n int, es []edge) {
	fill(succs, n, es)
	for i, e := range es {
		es[i] = edge{e.v, e.row}
	}
	fill(preds, n, es)
}

// ctrlEdge identifies a controlling branch edge: control leaves block
// From through the edge whose head is block To.
type ctrlEdge struct{ From, To int }

// analysis bundles the verifier's independently derived control-flow
// facts about one function.
type analysis struct {
	n     int
	succs rel[int] // full control flow graph
	preds rel[int]
	reach bitset // blocks reachable from entry

	fsuccs rel[int] // forward graph: back edges removed
	fpreds rel[int]
	cyclic bool // forward graph still cyclic (irreducible flow graph)

	dom    bitMatrix // row b: blocks dominating reachable b (reflexive)
	freach bitMatrix // row u: blocks reachable from reachable u in the forward graph (reflexive)

	// The facts only motion classification reads, computed on the
	// first cross-block motion (see motionFacts).
	ready  bool
	pdom   bitMatrix     // row b: blocks postdominating reachable b on the forward graph (reflexive)
	ipdom  []int         // immediate postdominator, vexit for exit blocks, -1 when unknown
	vexit  int           // virtual exit node number (== n)
	cdep   rel[ctrlEdge] // forward control dependences of each block, sorted
	cdSucc rel[int]      // blocks directly control dependent on a block
	loops  rel[int]      // sorted natural-loop headers containing each block

	// Scratch.
	tmp, seen   bitset
	edges       []edge
	cds         []entry[ctrlEdge]
	ints, stack []int
}

// analyze computes the facts every check needs from the current shape
// of f. Scheduling moves instructions but never blocks or terminators,
// so the result is valid for both the pre- and post-schedule program.
func (an *analysis) analyze(f *ir.Func) {
	n := len(f.Blocks)
	an.n, an.vexit, an.ready = n, n, false
	an.edges = an.edges[:0]
	var buf [2]*ir.Block
	for i, b := range f.Blocks {
		for _, s := range ir.AppendSuccs(buf[:0], f, b) {
			an.edges = append(an.edges, edge{i, s.Index})
		}
	}
	fillGraph(&an.succs, &an.preds, n, an.edges)

	// Reachability from the entry block.
	words := (n + 1 + 63) / 64 // room for the virtual exit
	an.reach = grow(an.reach, words)
	an.tmp = grow(an.tmp, words)
	an.seen = grow(an.seen, words)
	an.stack = append(an.stack[:0], 0)
	an.reach.set(0)
	for len(an.stack) > 0 {
		u := an.stack[len(an.stack)-1]
		an.stack = an.stack[:len(an.stack)-1]
		for _, v := range an.succs.row(u) {
			if !an.reach.has(v) {
				an.reach.set(v)
				an.stack = append(an.stack, v)
			}
		}
	}

	an.computeDominators()
	an.computeForwardGraph()
}

// motionFacts computes postdominators, control dependences and loops,
// once per check, for the first motion that needs them.
func (an *analysis) motionFacts() {
	if an.ready {
		return
	}
	an.ready = true
	if !an.cyclic {
		an.computePostDominators()
		an.computeControlDeps()
	}
	an.computeLoops()
}

// computeDominators solves dom[b] = {b} ∪ ∩ dom[preds] by iteration over
// the full flow graph.
func (an *analysis) computeDominators() {
	an.dom.reset(an.n, an.n)
	for b := 1; b < an.n; b++ {
		if an.reach.has(b) {
			an.dom.row(b).setAll(an.n)
		}
	}
	if an.n > 0 {
		an.dom.row(0).set(0)
	}
	nv := an.tmp[:an.dom.w]
	for changed := true; changed; {
		changed = false
		for b := 1; b < an.n; b++ {
			if !an.reach.has(b) {
				continue
			}
			clear(nv)
			nv.setAll(an.n)
			for _, p := range an.preds.row(b) { // one is reachable, as b is
				if an.reach.has(p) {
					nv.intersect(an.dom.row(p))
				}
			}
			nv.set(b)
			if an.dom.row(b).intersect(nv) {
				changed = true
			}
		}
	}
}

// dominates reports whether a dominates b (reflexively). Unreachable
// blocks dominate and are dominated by nothing.
func (an *analysis) dominates(a, b int) bool {
	return an.reach.has(a) && an.reach.has(b) && an.dom.row(b).has(a)
}

// computeForwardGraph removes every edge u→v with v dominating u,
// producing the forward graph, and fills freach by reverse-topological
// accumulation. It records whether the forward graph is still cyclic
// (an irreducible flow graph): a DFS that meets a block still on its
// stack has found a cycle.
func (an *analysis) computeForwardGraph() {
	an.edges = an.edges[:0]
	for u := 0; u < an.n; u++ {
		for _, v := range an.succs.row(u) {
			if an.reach.has(u) && !an.dominates(v, u) { // else unreachable or a back edge
				an.edges = append(an.edges, edge{u, v})
			}
		}
	}
	fillGraph(&an.fsuccs, &an.fpreds, an.n, an.edges)
	an.freach.reset(an.n, an.n)
	an.cyclic = false
	state := grow(an.ints, an.n) // 0 unvisited, 1 on the DFS stack, 2 done
	var dfs func(u int)
	dfs = func(u int) {
		state[u] = 1
		r := an.freach.row(u)
		r.set(u)
		for _, v := range an.fsuccs.row(u) {
			if state[v] == 0 {
				dfs(v)
			}
			if state[v] == 1 { // cycle: closed iteratively below
				an.cyclic = true
				r.set(v)
			} else {
				r.union(an.freach.row(v))
			}
		}
		state[u] = 2
	}
	for u := 0; u < an.n; u++ {
		if an.reach.has(u) && state[u] == 0 {
			dfs(u)
		}
	}
	an.ints = state
	if an.cyclic {
		// Close transitively until stable (irreducible graphs only).
		for changed := true; changed; {
			changed = false
			for u := 0; u < an.n; u++ {
				if !an.reach.has(u) {
					continue
				}
				for _, v := range an.fsuccs.row(u) {
					if an.freach.row(u).union(an.freach.row(v)) {
						changed = true
					}
				}
			}
		}
	}
}

// forwardReach reports whether v is reachable from u (reflexively) in
// the forward graph.
func (an *analysis) forwardReach(u, v int) bool {
	return an.reach.has(u) && an.freach.row(u).has(v)
}

// computePostDominators runs the same set-iteration backwards over the
// forward graph, against a virtual exit that every forward-successor-less
// block flows into.
func (an *analysis) computePostDominators() {
	nv := an.n + 1
	an.pdom.reset(nv, nv)
	an.pdom.row(an.vexit).set(an.vexit)
	for b := 0; b < an.n; b++ {
		if an.reach.has(b) {
			an.pdom.row(b).setAll(nv)
		}
	}
	acc := an.tmp[:an.pdom.w]
	for changed := true; changed; {
		changed = false
		for b := an.n - 1; b >= 0; b-- {
			if !an.reach.has(b) {
				continue
			}
			clear(acc)
			acc.setAll(nv)
			for _, s := range an.fsuccs.row(b) {
				acc.intersect(an.pdom.row(s)) // reachable, as b is
			}
			if len(an.fsuccs.row(b)) == 0 { // exit edge to the virtual exit
				acc.intersect(an.pdom.row(an.vexit))
			}
			acc.set(b)
			if an.pdom.row(b).intersect(acc) {
				changed = true
			}
		}
	}
	// Immediate postdominators via set sizes: ipdom(b) is the strict
	// postdominator of b with the largest postdominance set.
	size := grow(an.stack, nv)
	for c := 0; c < an.n; c++ {
		for _, w := range an.pdom.row(c) {
			size[c] += bits.OnesCount64(w)
		}
	}
	size[an.vexit] = 1
	an.ipdom = grow(an.ipdom, an.n)
	for b := 0; b < an.n; b++ {
		an.ipdom[b] = -1
		if !an.reach.has(b) {
			continue
		}
		bestCount := -1
		for w, word := range an.pdom.row(b) { // ascending members c
			for ; word != 0; word &= word - 1 {
				c := w*64 + bits.TrailingZeros64(word)
				if c != b && size[c] > bestCount {
					an.ipdom[b], bestCount = c, size[c]
				}
			}
		}
	}
	an.stack = size
}

// postDominates reports whether a postdominates b (reflexively) on the
// forward graph.
func (an *analysis) postDominates(a, b int) bool {
	return !an.cyclic && an.reach.has(b) && an.pdom.row(b).has(a)
}

// computeControlDeps derives forward control dependences per
// Ferrante/Ottenstein/Warren: for each forward edge u→v with v not
// postdominating u, every block on the postdominator chain from v up to
// (exclusive) ipdom(u) is control dependent on that edge.
func (an *analysis) computeControlDeps() {
	an.cds = an.cds[:0]
	for u := 0; u < an.n; u++ {
		if !an.reach.has(u) {
			continue
		}
		fs := an.fsuccs.row(u)
		for k, v := range fs {
			if slices.Contains(fs[:k], v) || an.postDominates(v, u) {
				continue
			}
			stop := an.ipdom[u]
			for x := v; x != stop && x != an.vexit && x >= 0; x = an.ipdom[x] {
				an.cds = append(an.cds, entry[ctrlEdge]{x, ctrlEdge{From: u, To: v}})
			}
		}
	}
	fill(&an.cdep, an.n, an.cds)
	an.edges = an.edges[:0]
	for b := 0; b < an.n; b++ {
		deps := an.cdep.row(b)
		slices.SortFunc(deps, func(x, y ctrlEdge) int {
			if x.From != y.From {
				return x.From - y.From
			}
			return x.To - y.To
		})
		for i, d := range deps {
			if i == 0 || d.From != deps[i-1].From {
				an.edges = append(an.edges, edge{d.From, b})
			}
		}
	}
	// The entries come in block order, so every row comes out sorted
	// and, with repeated From edges dropped above, free of duplicates.
	fill(&an.cdSucc, an.n, an.edges)
}

// sameCD reports whether blocks a and b have identical forward control
// dependences.
func (an *analysis) sameCD(a, b int) bool {
	return slices.Equal(an.cdep.row(a), an.cdep.row(b))
}

// computeLoops builds natural loops from the back edges and records each
// block's sorted set of containing loop headers. Instructions may never
// change their loop membership (region boundaries, §6).
func (an *analysis) computeLoops() {
	members := an.edges[:0] // (block, header) pairs
	inLoop := an.seen
	for u := 0; u < an.n; u++ {
		if !an.reach.has(u) {
			continue
		}
		for _, v := range an.succs.row(u) {
			if !an.dominates(v, u) {
				continue
			}
			// Back edge u→v, header v. Blocks reaching u without passing v
			// belong to the loop. The header is never walked: for a self
			// back edge (u == v) the loop is exactly {v}, and walking v's
			// predecessors would flood everything upstream of the loop
			// into it.
			clear(inLoop)
			inLoop.set(v)
			members = append(members, edge{v, v})
			stack := an.stack[:0]
			if !inLoop.has(u) {
				inLoop.set(u)
				members = append(members, edge{u, v})
				stack = append(stack, u)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range an.preds.row(x) {
					if !inLoop.has(p) && an.reach.has(p) {
						inLoop.set(p)
						members = append(members, edge{p, v})
						stack = append(stack, p)
					}
				}
			}
			an.stack = stack
		}
	}
	slices.SortFunc(members, func(x, y edge) int {
		if x.row != y.row {
			return x.row - y.row
		}
		return x.v - y.v
	})
	an.edges = slices.Compact(members)
	fill(&an.loops, an.n, an.edges)
}

// sameLoops reports whether blocks a and b sit in the same natural loops.
func (an *analysis) sameLoops(a, b int) bool {
	return slices.Equal(an.loops.row(a), an.loops.row(b))
}

// equivalent implements Definition 3 (via identical control dependences,
// confirmed on the dominance sets): a and b execute under exactly the
// same conditions.
func (an *analysis) equivalent(a, b int) bool {
	if a == b {
		return true
	}
	if an.cyclic || !an.sameCD(a, b) {
		return false
	}
	return (an.dominates(a, b) && an.postDominates(b, a)) ||
		(an.dominates(b, a) && an.postDominates(a, b))
}

// specDepth returns the number of branches gambled on when an
// instruction moves from block h into block b (Definition 7): the BFS
// distance from b (or a block equivalent to and dominated by b) to h in
// the forward control dependence graph, visiting only blocks dominated
// by b. Returns 0 when the blocks are equivalent and -1 when h is not a
// speculative candidate at any depth.
func (an *analysis) specDepth(b, h int) int {
	if an.cyclic {
		return -1
	}
	if an.equivalent(b, h) && an.dominates(b, h) {
		return 0
	}
	seen := an.seen
	clear(seen)
	seen.set(b)
	frontier, next := []int{b}, []int(nil)
	for e := 0; e < an.n; e++ {
		if e != b && an.dominates(b, e) && an.postDominates(e, b) && an.sameCD(e, b) {
			seen.set(e)
			frontier = append(frontier, e)
		}
	}
	for depth := 1; len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, ch := range an.cdSucc.row(u) {
				if seen.has(ch) || !an.dominates(b, ch) {
					continue
				}
				seen.set(ch)
				if ch == h {
					return depth
				}
				next = append(next, ch)
			}
		}
		frontier, next = next, frontier
	}
	return -1
}
