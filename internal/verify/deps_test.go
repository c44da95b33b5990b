package verify_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/verify"
	"gsched/internal/workload"
)

// TestIndexedDepsMatchPairwise pins the verifier's register-indexed
// dependence walk to the pairwise oracle it replaced: over the paper's
// four proxies, generated mini-C programs, a slice of a Huge assembly
// program and the committed difftest reproducers, both before and after
// scheduling at useful, speculative and dup, the two must derive the
// same dependence set. The one intended difference is multiplicity: the
// oracle emits a dependence once per repeated register occurrence (an
// instruction reading r twice yields two anti dependences on a later
// definition of r), the indexed walk exactly once.
func TestIndexedDepsMatchPairwise(t *testing.T) {
	type unit struct {
		name    string
		compile func() (*ir.Program, error)
	}
	var units []unit
	for _, w := range workload.All() {
		units = append(units, unit{w.Name, w.Compile})
	}
	for seed := int64(0); seed < 30; seed++ {
		src := progen.New(seed).Source
		units = append(units, unit{"progen", func() (*ir.Program, error) { return minic.Compile(src) }})
	}
	asmUnit := func(name, src string) unit {
		return unit{name, func() (*ir.Program, error) { return asm.Parse(src) }}
	}
	units = append(units, asmUnit("huge", progen.Huge(3, 2500).Source))
	repros, _ := filepath.Glob("../../testdata/difftest/*.asm")
	if len(repros) == 0 {
		t.Fatal("no difftest reproducers found")
	}
	for _, path := range repros {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, asmUnit(filepath.Base(path), string(data)))
	}

	total, repeats := 0, 0
	compare := func(u unit, stage string, f *ir.Func) {
		indexed, pairwise := verify.DepSets(verify.Capture(f), f)
		if n := len(slices.Compact(slices.Clone(indexed))); n != len(indexed) {
			t.Errorf("%s %s %s: indexed walk emitted %d duplicate dependences", u.name, stage, f.Name, len(indexed)-n)
		}
		repeats += len(pairwise)
		pairwise = slices.Compact(pairwise)
		repeats -= len(pairwise)
		total += len(indexed)
		if !slices.Equal(indexed, pairwise) {
			t.Errorf("%s %s %s: indexed walk found %d dependences, pairwise oracle %d distinct",
				u.name, stage, f.Name, len(indexed), len(pairwise))
		}
	}
	for _, u := range units {
		prog, err := u.compile()
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		for _, f := range prog.Funcs {
			compare(u, "unscheduled", f)
		}
		for _, level := range []core.Level{core.LevelUseful, core.LevelSpeculative, core.LevelDup} {
			prog, err := u.compile()
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Defaults(machine.RS6K(), level)
			opts.Parallelism = 1
			if _, err := core.ScheduleProgram(prog, opts); err != nil {
				t.Fatalf("%s at %v: %v", u.name, level, err)
			}
			for _, f := range prog.Funcs {
				compare(u, level.String(), f)
			}
		}
	}
	t.Logf("%d dependences over %d units; the pairwise oracle repeated %d of them", total, len(units), repeats)
	if total == 0 {
		t.Fatal("no dependences derived; the comparison was vacuous")
	}
}
