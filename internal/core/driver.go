package core

import (
	"context"
	"fmt"
	"io"
	"sync"

	"gsched/internal/ir"
)

// RunFuncs is the one program driver. It feeds the functions next
// yields (until io.EOF) to step on up to workers goroutines (at least
// one), and hands each step's result to emit on a single goroutine in
// the order next produced the functions. Functions are independent
// compilation units, so whatever emit builds is identical at every
// worker count; only wall-clock time changes.
//
// At most 2·workers functions are in the pipeline between next and
// emit, so a streaming next keeps memory proportional to the worker
// count times the largest function, not to the program.
//
// Errors follow the materializing path's precedence. An error from next
// wins: after a step or emit error, next is still drained (without
// scheduling) to find one. Otherwise the error of the earliest function
// whose step or emit failed is returned; the first such error stops
// feeding. A cancelled ctx stops feeding at once and returns an error
// wrapping ctx.Err().
//
// A panic in step or emit counts as that function's failure: feeding
// stops as on an error, and once every goroutine RunFuncs started has
// finished, the panic is raised again with the same value on the
// caller's goroutine, where the caller's recover sees it at any worker
// count. The re-raised panic's stack is the caller's, not the step's.
func RunFuncs[T any](ctx context.Context, workers int, next func() (*ir.Func, error),
	step func(*ir.Func) (T, error), emit func(T) error) error {

	if workers < 1 {
		workers = 1
	}
	type task struct {
		f     *ir.Func
		res   T
		err   error
		panic *caught
		done  chan struct{}
	}
	// work holds a next task per worker, so none idles while the
	// front end parses; order's capacity bounds the functions in flight.
	work := make(chan *task, workers)
	order := make(chan *task, 2*workers)
	abort := make(chan struct{}) // closed by the emitter on the first error

	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for t := range work {
			t.panic = catch(func() { t.res, t.err = step(t.f) })
			close(t.done)
		}
	}

	var emitErr error
	var emitPanic *caught
	emitDone := make(chan struct{})
	go func() {
		defer close(emitDone)
		for t := range order {
			<-t.done
			if emitErr != nil || emitPanic != nil {
				continue // draining after failure
			}
			switch {
			case t.panic != nil:
				emitPanic = t.panic
			case t.err != nil:
				emitErr = t.err
			default:
				emitPanic = catch(func() { emitErr = emit(t.res) })
			}
			if emitErr != nil || emitPanic != nil {
				close(abort)
			}
		}
	}()

	// Workers start as work arrives, so a one-function program costs
	// one worker whatever the budget.
	started := 0
	feeding := true
	var nextErr, ctxErr error
	for {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		f, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			nextErr = err
			break
		}
		if !feeding {
			continue // a function failed: only look for a front-end error
		}
		t := &task{f: f, done: make(chan struct{})}
		select {
		case order <- t:
		case <-abort:
			feeding = false
			continue
		}
		if started < workers {
			started++
			wg.Add(1)
			go worker()
		}
		select {
		case work <- t:
		case <-abort:
			// The emitter still waits on this task; resolve it.
			close(t.done)
			feeding = false
		}
	}
	close(work)
	close(order)
	wg.Wait()
	<-emitDone

	switch {
	case nextErr != nil:
		return nextErr
	case emitPanic != nil:
		panic(emitPanic.val)
	case emitErr != nil:
		return emitErr
	case ctxErr != nil:
		return fmt.Errorf("core: schedule cancelled: %w", ctxErr)
	}
	return nil
}

// caught holds a recovered panic value.
type caught struct{ val any }

// catch runs fn and returns the panic it raised, or nil.
func catch(fn func()) (c *caught) {
	defer func() {
		if v := recover(); v != nil {
			c = &caught{v}
		}
	}()
	fn()
	return nil
}

// FuncsOf returns a RunFuncs next function over the functions of p.
func FuncsOf(p *ir.Program) func() (*ir.Func, error) {
	i := 0
	return func() (*ir.Func, error) {
		if i == len(p.Funcs) {
			return nil, io.EOF
		}
		i++
		return p.Funcs[i-1], nil
	}
}
