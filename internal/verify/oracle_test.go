package verify

import (
	"fmt"
	"slices"

	"gsched/internal/ir"
)

// The verifier's original dependence enumeration, kept only as a test
// oracle for the register-indexed walk in deps.go: it tests every
// ordered instruction pair, which is quadratic in the function's size.

// pairDeps appends every dependence forcing a to stay before b (a is
// textually earlier on some path). Unlike forEachDep it emits one
// dependence per repeated occurrence of a register: an instruction
// reading r twice (A r3=r2,r2) yields two identical anti dependences on
// a later definition of r, and so, when that pair is reordered, two
// identical violations. The indexed walk emits each dependence once.
func pairDeps(a, b *ir.Instr, out []dep) []dep {
	var adefs, auses, bdefs, buses [4]ir.Reg
	ad := a.Defs(adefs[:0])
	au := a.Uses(auses[:0])
	bd := b.Defs(bdefs[:0])
	bu := b.Uses(buses[:0])

	has := func(set []ir.Reg, r ir.Reg) bool {
		for _, x := range set {
			if x == r {
				return true
			}
		}
		return false
	}
	for _, r := range ad {
		if has(bu, r) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depFlow, Reg: r})
		}
		if has(bd, r) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depOutput, Reg: r})
		}
	}
	for _, r := range au {
		if has(bd, r) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depAnti, Reg: r})
		}
	}
	if a.Op.TouchesMemory() && b.Op.TouchesMemory() {
		if !(a.Op.IsLoad() && b.Op.IsLoad()) && memConflict(a, b) {
			out = append(out, dep{From: a.ID, To: b.ID, Kind: depMem})
		}
	}
	return out
}

// pairwiseDeps emits pairDeps for every pair in one block in layout
// order, and for every pair across two distinct blocks where the second
// is reachable from the first in the forward graph.
func pairwiseDeps(s *Snapshot, an *analysis, emit func(dep)) {
	var buf []dep
	pair := func(x, y int) {
		buf = pairDeps(&s.instrs[x], &s.instrs[y], buf[:0])
		for _, d := range buf {
			emit(d)
		}
	}
	n := len(s.labels)
	for b := 0; b < n; b++ {
		for x := s.start[b]; x < s.start[b+1]; x++ {
			for y := x + 1; y < s.start[b+1]; y++ {
				pair(x, y)
			}
		}
	}
	for ai := 0; ai < n; ai++ {
		if !an.reach.has(ai) {
			continue
		}
		for bi := 0; bi < n; bi++ {
			if ai == bi || !an.forwardReach(ai, bi) {
				continue
			}
			for x := s.start[ai]; x < s.start[ai+1]; x++ {
				for y := s.start[bi]; y < s.start[bi+1]; y++ {
					pair(x, y)
				}
			}
		}
	}
}

// DepSets derives snap's dependences over f's flow graph both ways and
// renders each as one line, sorted: the register-indexed walk the
// verifier runs and the pairwise oracle, duplicates kept in both.
func DepSets(snap *Snapshot, f *ir.Func) (indexed, pairwise []string) {
	var an analysis
	an.analyze(f)
	var ix regIndex
	ix.build(snap)
	render := func(out *[]string) func(dep) {
		return func(d dep) {
			*out = append(*out, fmt.Sprintf("%d->%d %s%s", d.From, d.To, d.Kind, regSuffix(d)))
		}
	}
	forEachDep(snap, &an, &ix, render(&indexed))
	pairwiseDeps(snap, &an, render(&pairwise))
	slices.Sort(indexed)
	slices.Sort(pairwise)
	return indexed, pairwise
}
