package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"gsched/internal/ir"
)

// countedFuncs is a RunFuncs front end yielding n functions named
// "0".."n-1", then failing with failAt's error instead of io.EOF when
// failAt is set.
func countedFuncs(n int, failAt error) func() (*ir.Func, error) {
	i := 0
	return func() (*ir.Func, error) {
		if i == n {
			if failAt != nil {
				return nil, failAt
			}
			return nil, io.EOF
		}
		i++
		return ir.NewFunc(fmt.Sprint(i - 1)), nil
	}
}

// TestRunFuncsBoundsWorkersAndKeepsOrder: exactly Parallelism steps run
// at once (the first batch waits until all of them are in), never more,
// and results reach emit in source order.
func TestRunFuncsBoundsWorkersAndKeepsOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		const n = 64
		var active, peak atomic.Int32
		full := make(chan struct{})
		var filled atomic.Bool
		step := func(f *ir.Func) (string, error) {
			a := active.Add(1)
			defer active.Add(-1)
			for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
			}
			if int(a) == workers && filled.CompareAndSwap(false, true) {
				close(full)
			}
			select {
			case <-full:
			case <-time.After(5 * time.Second):
				return "", fmt.Errorf("only %d of %d workers ever ran at once", peak.Load(), workers)
			}
			return f.Name, nil
		}
		var got []string
		err := RunFuncs(context.Background(), workers, countedFuncs(n, nil), step, func(name string) error {
			got = append(got, name)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if p := int(peak.Load()); p != workers {
			t.Errorf("workers=%d: peak in-flight steps %d", workers, p)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d results, want %d", workers, len(got), n)
		}
		for i, name := range got {
			if name != fmt.Sprint(i) {
				t.Fatalf("workers=%d: result %d is function %s", workers, i, name)
			}
		}
	}
}

// TestRunFuncsEarliestStepErrorWins: of several failing functions the
// earliest in source order is reported, whatever order the steps finish
// in, and feeding stops there.
func TestRunFuncsEarliestStepErrorWins(t *testing.T) {
	const n = 1000
	var stepped atomic.Int32
	step := func(f *ir.Func) (int, error) {
		stepped.Add(1)
		switch f.Name {
		case "5":
			time.Sleep(20 * time.Millisecond) // finish after the later failure
			return 0, errors.New("fail 5")
		case "7":
			return 0, errors.New("fail 7")
		}
		return 0, nil
	}
	var emitted int
	err := RunFuncs(context.Background(), 4, countedFuncs(n, nil), step, func(int) error {
		emitted++
		return nil
	})
	if err == nil || err.Error() != "fail 5" {
		t.Fatalf("err = %v, want fail 5", err)
	}
	if emitted != 5 {
		t.Errorf("emitted %d results, want the 5 before the failure", emitted)
	}
	if s := stepped.Load(); s >= n/2 {
		t.Errorf("%d of %d functions stepped: feeding did not stop", s, n)
	}
}

// TestRunFuncsFrontEndErrorWins: an error from next wins over a step
// error, even one from a function the front end yielded earlier.
func TestRunFuncsFrontEndErrorWins(t *testing.T) {
	parseErr := errors.New("parse error")
	for _, workers := range []int{1, 4} {
		step := func(f *ir.Func) (int, error) {
			if f.Name == "0" {
				return 0, errors.New("step error")
			}
			return 0, nil
		}
		err := RunFuncs(context.Background(), workers, countedFuncs(20, parseErr), step, func(int) error { return nil })
		if !errors.Is(err, parseErr) {
			t.Errorf("workers=%d: err = %v, want the front-end error", workers, err)
		}
	}
}

// TestRunFuncsCancel: a cancelled ctx stops an endless front end
// promptly, with an error wrapping ctx.Err().
func TestRunFuncsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	endless := func() (*ir.Func, error) { return ir.NewFunc("f"), nil }
	step := func(f *ir.Func) (int, error) {
		time.Sleep(time.Millisecond)
		return 0, nil
	}
	time.AfterFunc(20*time.Millisecond, cancel)
	errc := make(chan error, 1)
	go func() { errc <- RunFuncs(ctx, 4, endless, step, func(int) error { return nil }) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunFuncs did not return after cancellation")
	}
}

// TestRunFuncsPanicReachesCaller: a panic in step or emit is raised
// again on the caller's goroutine with its value, so the caller's
// recover sees it at any worker count, and feeding stops there.
func TestRunFuncsPanicReachesCaller(t *testing.T) {
	type boom struct{ where string }
	run := func(workers int, step func(*ir.Func) (string, error), emit func(string) error) (v any, err error) {
		defer func() { v = recover() }()
		return nil, RunFuncs(context.Background(), workers, countedFuncs(1000, nil), step, emit)
	}
	for _, workers := range []int{1, 4} {
		var stepped atomic.Int32
		step := func(f *ir.Func) (string, error) {
			stepped.Add(1)
			if f.Name == "3" {
				panic(boom{"step"})
			}
			return f.Name, nil
		}
		var emitted int
		v, err := run(workers, step, func(string) error { emitted++; return nil })
		if v != (boom{"step"}) || err != nil {
			t.Errorf("workers=%d: step panic: recovered %v, err %v", workers, v, err)
		}
		if emitted != 3 {
			t.Errorf("workers=%d: emitted %d results before the step panic, want 3", workers, emitted)
		}
		if s := stepped.Load(); s >= 500 {
			t.Errorf("workers=%d: %d functions stepped after a panic: feeding did not stop", workers, s)
		}

		v, err = run(workers, func(f *ir.Func) (string, error) { return f.Name, nil }, func(name string) error {
			if name == "5" {
				panic(boom{"emit"})
			}
			return nil
		})
		if v != (boom{"emit"}) || err != nil {
			t.Errorf("workers=%d: emit panic: recovered %v, err %v", workers, v, err)
		}
	}
}
