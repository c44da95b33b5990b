// Package dataflow implements the live-variable analysis the speculative
// scheduler depends on (§5.3 of the paper: an instruction must not move
// speculatively into a block if it defines a register live on exit from
// that block), plus the register set machinery shared with renaming.
package dataflow

import (
	"gsched/internal/cfg"
	"gsched/internal/ir"
)

// RegSet is a dense set of symbolic registers, one bitset per class.
type RegSet struct {
	bits [ir.NumClasses][]uint64
}

// NewRegSet returns a set sized for the registers of f.
func NewRegSet(f *ir.Func) *RegSet {
	s := &RegSet{}
	for c := 0; c < ir.NumClasses; c++ {
		n := f.NumRegs(ir.RegClass(c))
		s.bits[c] = make([]uint64, (n+63)/64)
	}
	return s
}

func (s *RegSet) ensure(r ir.Reg) {
	w := int(r.Num)/64 + 1
	for len(s.bits[r.Class]) < w {
		s.bits[r.Class] = append(s.bits[r.Class], 0)
	}
}

// Add inserts r.
func (s *RegSet) Add(r ir.Reg) {
	if !r.Valid() {
		return
	}
	s.ensure(r)
	s.bits[r.Class][r.Num/64] |= 1 << (uint(r.Num) % 64)
}

// Del removes r.
func (s *RegSet) Del(r ir.Reg) {
	if !r.Valid() {
		return
	}
	w := int(r.Num) / 64
	if w < len(s.bits[r.Class]) {
		s.bits[r.Class][w] &^= 1 << (uint(r.Num) % 64)
	}
}

// Has reports whether r is in the set.
func (s *RegSet) Has(r ir.Reg) bool {
	if !r.Valid() {
		return false
	}
	w := int(r.Num) / 64
	return w < len(s.bits[r.Class]) && s.bits[r.Class][w]&(1<<(uint(r.Num)%64)) != 0
}

// UnionInto merges o into s and reports whether s changed.
func (s *RegSet) UnionInto(o *RegSet) bool {
	changed := false
	for c := 0; c < ir.NumClasses; c++ {
		for len(s.bits[c]) < len(o.bits[c]) {
			s.bits[c] = append(s.bits[c], 0)
		}
		for w, v := range o.bits[c] {
			if s.bits[c][w]|v != s.bits[c][w] {
				s.bits[c][w] |= v
				changed = true
			}
		}
	}
	return changed
}

// Copy returns an independent copy of s.
func (s *RegSet) Copy() *RegSet {
	c := &RegSet{}
	for k := 0; k < ir.NumClasses; k++ {
		c.bits[k] = append([]uint64(nil), s.bits[k]...)
	}
	return c
}

// Clear empties the set in place.
func (s *RegSet) Clear() {
	for c := 0; c < ir.NumClasses; c++ {
		for w := range s.bits[c] {
			s.bits[c][w] = 0
		}
	}
}

// ForEach calls fn for every member.
func (s *RegSet) ForEach(fn func(ir.Reg)) {
	for c := 0; c < ir.NumClasses; c++ {
		for w, bitsw := range s.bits[c] {
			for bitsw != 0 {
				b := bitsw & (-bitsw)
				bitsw ^= b
				n := 0
				for b > 1 {
					b >>= 1
					n++
				}
				fn(ir.Reg{Class: ir.RegClass(c), Num: int32(w*64 + n)})
			}
		}
	}
}

// Count returns the number of members.
func (s *RegSet) Count() int {
	n := 0
	s.ForEach(func(ir.Reg) { n++ })
	return n
}

// Liveness holds per-block live-in and live-out register sets.
type Liveness struct {
	In, Out []*RegSet
}

// Compute runs the classic backward live-variable analysis over f using
// the flow graph g.
func Compute(f *ir.Func, g *cfg.Graph) *Liveness {
	return new(Analyzer).Compute(f, g)
}

// Analyzer computes liveness repeatedly over one function, reusing all
// of its buffers between runs. The scheduler refreshes liveness after
// every speculative code motion, so the steady state allocates nothing:
// all 4n per-block sets (use, def, in, out) are carved out of a single
// backing array that is cleared and re-carved on each run, and the fixed
// point updates sets word-wise in place instead of copying.
//
// The returned Liveness aliases the analyzer's buffers: it is valid
// until the next Compute call on the same analyzer.
type Analyzer struct {
	sets    []RegSet
	backing []uint64
	lv      Liveness
	work    []int
	inWork  []bool
}

// Compute runs the analysis over f, reusing the analyzer's buffers.
func (a *Analyzer) Compute(f *ir.Func, g *cfg.Graph) *Liveness {
	n := len(f.Blocks)
	var words [ir.NumClasses]int
	perSet := 0
	for c := 0; c < ir.NumClasses; c++ {
		words[c] = (f.NumRegs(ir.RegClass(c)) + 63) / 64
		perSet += words[c]
	}
	if need := 4 * n * perSet; cap(a.backing) < need {
		a.backing = make([]uint64, need)
	} else {
		a.backing = a.backing[:need]
		clear(a.backing)
	}
	if cap(a.sets) < 4*n {
		a.sets = make([]RegSet, 4*n)
	}
	sets := a.sets[:4*n]
	backing := a.backing
	for i := range sets {
		for c := 0; c < ir.NumClasses; c++ {
			// Cap each slice at its own words so an out-of-range Add
			// reallocates instead of clobbering the next set.
			sets[i].bits[c] = backing[:words[c]:words[c]]
			backing = backing[words[c]:]
		}
	}
	if cap(a.lv.In) < n {
		a.lv.In = make([]*RegSet, n)
		a.lv.Out = make([]*RegSet, n)
	}
	lv := &a.lv
	lv.In, lv.Out = lv.In[:n], lv.Out[:n]
	var scratchBuf [8]ir.Reg
	scratch := scratchBuf[:0]
	for i, b := range f.Blocks {
		in, out := &sets[4*i], &sets[4*i+1]
		use, def := &sets[4*i+2], &sets[4*i+3]
		lv.In[i], lv.Out[i] = in, out
		for _, ins := range b.Instrs {
			scratch = ins.Uses(scratch[:0])
			for _, r := range scratch {
				if !def.Has(r) {
					use.Add(r)
				}
			}
			scratch = ins.Defs(scratch[:0])
			for _, r := range scratch {
				def.Add(r)
			}
		}
	}
	// A register noted after construction (bypassing Builder/NoteReg) can
	// grow a use/def set past words[c]; keep every row the same width so
	// the word-wise loop below sees aligned slices.
	for c := 0; c < ir.NumClasses; c++ {
		maxw := words[c]
		for i := range sets {
			if len(sets[i].bits[c]) > maxw {
				maxw = len(sets[i].bits[c])
			}
		}
		if maxw != words[c] {
			for i := range sets {
				for len(sets[i].bits[c]) < maxw {
					sets[i].bits[c] = append(sets[i].bits[c], 0)
				}
			}
		}
	}
	// Iterate to the (unique) fixed point with a worklist seeded in
	// reverse layout order: a block is reprocessed only when the live-in
	// set of one of its successors grew.
	if cap(a.inWork) < n {
		a.inWork = make([]bool, n)
		a.work = make([]int, n)
	}
	inWork, work := a.inWork[:n], a.work[:n]
	for i := 0; i < n; i++ {
		work[i] = n - 1 - i
		inWork[n-1-i] = true
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[i] = false
		out := lv.Out[i]
		for _, s := range g.Succs[i] {
			out.UnionInto(lv.In[s])
		}
		// in ∪= use ∪ (out − def); monotone, like the old copy-based
		// update, but in place.
		in, use, def := lv.In[i], &sets[4*i+2], &sets[4*i+3]
		changed := false
		for c := 0; c < ir.NumClasses; c++ {
			ib, ob, ub, db := in.bits[c], out.bits[c], use.bits[c], def.bits[c]
			for w := range ib {
				v := ub[w] | (ob[w] &^ db[w])
				if v&^ib[w] != 0 {
					ib[w] |= v
					changed = true
				}
			}
		}
		if changed {
			for _, p := range g.Preds[i] {
				if !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}
	return lv
}

// LiveOnExit reports whether r is live on exit from block b.
func (lv *Liveness) LiveOnExit(b int, r ir.Reg) bool { return lv.Out[b].Has(r) }
