package verify

import (
	"gsched/internal/ir"
)

// Dependence derivation, written from the paper's §3 definitions rather
// than shared with internal/pdg. A dependence x → y means y must not
// execute before x on any path where both execute.

// depKind labels a dependence for diagnostics.
type depKind uint8

const (
	depFlow depKind = iota
	depAnti
	depOutput
	depMem
)

func (k depKind) String() string { return [...]string{"flow", "anti", "output", "memory"}[k] }

// dep records that instruction From must stay ordered before To.
type dep struct {
	From, To int // instruction IDs
	Kind     depKind
	Reg      ir.Reg // register carrying the dependence (register kinds)
}

// memConflict conservatively decides whether two memory-touching
// instructions may access the same location. The facts mirror §4.2 of
// the paper: distinct named symbols are disjoint, stack frame slots are
// disjoint from global memory and from differently-offset frame slots,
// and a call may touch any global memory but never a private frame slot.
func memConflict(a, b *ir.Instr) bool {
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		other := a
		if a.Op == ir.OpCall {
			other = b
		}
		if other.Op == ir.OpCall {
			return true
		}
		// Calls cannot see the caller's frame slots.
		return other.Mem == nil || !other.Mem.Frame
	}
	ma, mb := a.Mem, b.Mem
	if ma == nil || mb == nil {
		return false
	}
	if ma.Frame != mb.Frame {
		return false
	}
	if ma.Frame {
		return ma.Off == mb.Off
	}
	if ma.Sym != "" && mb.Sym != "" && ma.Sym != mb.Sym {
		return false
	}
	if ma.Sym == mb.Sym && ma.Sym != "" && ma.Base == ir.NoReg && mb.Base == ir.NoReg {
		// Direct accesses to the same symbol at constant offsets.
		return ma.Off == mb.Off
	}
	return true
}

// regOcc is one snapshot instruction's touch of one register: its
// layout index and whether it defines and/or uses the register.
type regOcc struct {
	at       int32
	def, use bool
}

// regIndex lists, per register, the snapshot instructions touching it
// in layout order, plus every memory-touching instruction. The
// dependence walk and the §5.3 liveness check both read it.
type regIndex struct {
	occs  rel[regOcc]     // row regKey(r): r's occurrences
	mems  []int32         // layout indices of memory-touching instructions
	keyed []entry[regOcc] // scratch, rows by regKey
}

func regKey(r ir.Reg) int { return int(r.Num)*ir.NumClasses + int(r.Class) }

// build indexes the snapshot's instructions. An instruction reading a
// register twice, or reading and writing it, occurs once.
func (ix *regIndex) build(s *Snapshot) {
	ix.keyed, ix.mems = ix.keyed[:0], ix.mems[:0]
	maxKey := -1
	var buf [8]ir.Reg
	for i := range s.instrs {
		ins := &s.instrs[i]
		defs := ins.Defs(buf[:0])
		first := len(ix.keyed)
		for j, r := range ins.Uses(defs) {
			k := regKey(r)
			o := first
			for o < len(ix.keyed) && ix.keyed[o].row != k {
				o++
			}
			if o == len(ix.keyed) {
				ix.keyed = append(ix.keyed, entry[regOcc]{k, regOcc{at: int32(i)}})
				maxKey = max(maxKey, k)
			}
			if j < len(defs) {
				ix.keyed[o].v.def = true
			} else {
				ix.keyed[o].v.use = true
			}
		}
		if ins.Op.TouchesMemory() {
			ix.mems = append(ix.mems, int32(i))
		}
	}
	fill(&ix.occs, maxKey+1, ix.keyed)
}

// forEachDep calls emit once for every data dependence of the snapshot
// program. A pair x, y is ordered when y follows x in one block or y's
// block is reachable from x's in the forward graph; an ordered pair
// depends when x defines a register y uses (flow) or defines (output),
// when x uses a register y defines (anti), or when both touch memory,
// not both load, and may conflict. Rather than test every ordered pair,
// the walk visits each register's definitions against its other
// occurrences, costing definitions times occurrences per register; only
// the memory-touching instructions are paired with each other.
func forEachDep(s *Snapshot, an *analysis, ix *regIndex, emit func(dep)) {
	ordered := func(x, y int32) bool {
		hx, hy := s.home[x], s.home[y]
		if hx.block == hy.block {
			return hx.pos < hy.pos
		}
		return an.forwardReach(hx.block, hy.block)
	}
	id := func(x int32) int { return s.instrs[x].ID }
	for k := 0; k+1 < len(ix.occs.start); k++ {
		occ := ix.occs.row(k)
		r := ir.Reg{Class: ir.RegClass(k % ir.NumClasses), Num: int32(k / ir.NumClasses)}
		for i, d := range occ {
			if !d.def {
				continue
			}
			for j, o := range occ {
				if i == j {
					continue
				}
				if ordered(d.at, o.at) {
					if o.use {
						emit(dep{From: id(d.at), To: id(o.at), Kind: depFlow, Reg: r})
					}
					if o.def {
						emit(dep{From: id(d.at), To: id(o.at), Kind: depOutput, Reg: r})
					}
				}
				if o.use && ordered(o.at, d.at) {
					emit(dep{From: id(o.at), To: id(d.at), Kind: depAnti, Reg: r})
				}
			}
		}
	}
	for i, x := range ix.mems {
		a := &s.instrs[x]
		for _, y := range ix.mems[i+1:] {
			b := &s.instrs[y]
			if (a.Op.IsLoad() && b.Op.IsLoad()) || !memConflict(a, b) {
				continue
			}
			if ordered(x, y) {
				emit(dep{From: a.ID, To: b.ID, Kind: depMem})
			}
			if ordered(y, x) {
				emit(dep{From: b.ID, To: a.ID, Kind: depMem})
			}
		}
	}
}
