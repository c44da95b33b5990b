//go:build !race

// Allocation regression tests. They pin the scheduler's steady-state
// allocation counts so hot-path regressions fail loudly instead of
// showing up months later as throughput erosion.
//
// Updating a ceiling: these are budgets, not measurements. If a change
// legitimately adds allocations (a new pipeline phase, richer stats),
// measure the new steady state with
//
//	go test -run TestSchedulingAllocBudget -v
//
// and set the ceiling to roughly 1.3× the printed value, noting the
// measured number in the commit message. If a change trips a ceiling
// unintentionally, profile first (go test -bench SchedulerThroughput
// -memprofile mem.out) — the usual culprits are fmt formatting on a hot
// path, sort.Slice's reflection, or per-row slice allocation where a
// counted carve would do.
//
// The file is excluded under -race because the race detector adds its
// own allocations, which would make the budgets meaningless.
package gsched_test

import (
	"testing"

	"gsched/internal/core"
	"gsched/internal/machine"
	"gsched/internal/profile"
	"gsched/internal/sim"
	"gsched/internal/workload"
	"gsched/internal/xform"
)

// Budgets for the li workload (the paper's headline benchmark),
// sequential. The first two are the speculative level; measured
// 2026-08: ScheduleProgram ~1173 allocs, RunProgram (full
// unroll/rotate pipeline) ~1405. The dup budget covers level=dup with
// a trained edge profile, which adds probability lookups, superblock
// formation and Definition-6 copy bookkeeping on top of the same
// pipeline; measured 2026-08: ~1506.
const (
	maxScheduleAllocs    = 1550
	maxPipelineAllocs    = 1850
	maxDupPipelineAllocs = 1950
)

// maxVerifyAllocs budgets what Options.Verify adds to RunProgram(li):
// the allocations with it on minus those with it off, over the three
// verifier brackets (pass 1, pass 2, local post-pass). Measured
// 2026-10: ~6500 before the verifier's dense-state rewrite; ~20 after
// it (the three snapshots; checks reuse pooled state), with run-to-run
// noise of about ±40 from the scheduler's own pools refilling after a
// GC. The ceiling sits well above that noise and far below the old cost.
const maxVerifyAllocs = 300

func TestSchedulingAllocBudget(t *testing.T) {
	w := workload.ByName("li")
	if w == nil {
		t.Fatal("li workload missing")
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
	opts.Parallelism = 1

	// Rescheduling an already-scheduled program is legal and reaches a
	// steady state after the first run (AllocsPerRun's warm-up call), so
	// the measurement sees only per-run work, not one-time growth.
	got := testing.AllocsPerRun(20, func() {
		if _, err := core.ScheduleProgram(prog, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ScheduleProgram(li): %.0f allocs/run (budget %d)", got, maxScheduleAllocs)
	if got > maxScheduleAllocs {
		t.Errorf("ScheduleProgram(li) allocates %.0f per run, budget %d — see file comment before raising",
			got, maxScheduleAllocs)
	}

	prog2, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(20, func() {
		if _, err := xform.RunProgram(prog2, opts, xform.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunProgram(li): %.0f allocs/run (budget %d)", got, maxPipelineAllocs)
	if got > maxPipelineAllocs {
		t.Errorf("RunProgram(li) allocates %.0f per run, budget %d — see file comment before raising",
			got, maxPipelineAllocs)
	}
}

// TestDupSchedulingAllocBudget pins the level=dup pipeline the same
// way. Superblock formation tail-duplicates hot joins on the first
// pass; rescheduling the already-formed program is structurally a
// fixpoint (the clones carry fresh instruction IDs the profile has no
// counts for, so the MinCount gate stops further growth), which is why
// AllocsPerRun's warm-up call leaves a steady state to measure.
func TestDupSchedulingAllocBudget(t *testing.T) {
	w := workload.ByName("li")
	if w == nil {
		t.Fatal("li workload missing")
	}
	train, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	m, err := sim.Load(train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w.Entry, w.Args, w.Data, sim.Options{Profile: prof}); err != nil {
		t.Fatalf("training run: %v", err)
	}

	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Defaults(machine.RS6K(), core.LevelDup)
	opts.Profile = prof
	opts.Parallelism = 1
	got := testing.AllocsPerRun(20, func() {
		if _, err := xform.RunProgram(prog, opts, xform.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunProgram(li, dup+profile): %.0f allocs/run (budget %d)", got, maxDupPipelineAllocs)
	if got > maxDupPipelineAllocs {
		t.Errorf("RunProgram(li, dup+profile) allocates %.0f per run, budget %d — see file comment before raising",
			got, maxDupPipelineAllocs)
	}
}

// TestVerifyAllocBudget pins the independent verifier's own cost on
// the full li pipeline, as the difference between a run with
// Options.Verify and one without.
func TestVerifyAllocBudget(t *testing.T) {
	w := workload.ByName("li")
	if w == nil {
		t.Fatal("li workload missing")
	}
	measure := func(verify bool) float64 {
		prog, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Defaults(machine.RS6K(), core.LevelSpeculative)
		opts.Parallelism = 1
		opts.Verify = verify
		return testing.AllocsPerRun(50, func() {
			if _, err := xform.RunProgram(prog, opts, xform.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	measure(true) // warm the process-wide pools both measurements share
	off, on := measure(false), measure(true)
	got := on - off
	t.Logf("RunProgram(li) verifier: %.0f allocs/run (%.0f on - %.0f off, budget %d)", got, on, off, maxVerifyAllocs)
	if got > maxVerifyAllocs {
		t.Errorf("Options.Verify adds %.0f allocs per RunProgram(li), budget %d — see file comment before raising",
			got, maxVerifyAllocs)
	}
}
