// Package stream runs the whole per-function tool chain — parse,
// schedule, verify, print — as one overlapped pipeline over a
// FuncReader, instead of barrier-per-stage over a materialized
// program. Functions flow through core.RunFuncs, the program driver, as
// the front-end produces them; its single emitter reassembles the
// output in source order, so the bytes written are identical to
//
//	parse everything; ScheduleProgram/RunProgram; asm.Print
//
// at any Opts.Parallelism, while peak memory stays proportional to
// Parallelism · (largest function), not to the program (plus the
// source text itself, which callers hold in one string).
package stream

import (
	"context"
	"fmt"
	"io"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/minic"
	"gsched/internal/xform"
)

// Config selects what runs on each function.
type Config struct {
	// Opts are the scheduling options applied to every function;
	// Opts.Parallelism is the number of functions scheduled
	// concurrently. Output bytes and merged stats are identical at any
	// setting.
	Opts core.Options
	// Pipeline, when non-nil, configures the §6 transform pipeline
	// (xform.RunCtx per function); nil means plain scheduling
	// (core.ScheduleFuncCtx).
	Pipeline *xform.Config
}

// Result aggregates what flowed through the pipeline.
type Result struct {
	Stats  xform.Stats // scheduling stats merged in source order
	Funcs  int         // functions scheduled
	Instrs int         // input instructions (counted before scheduling)
}

type cDialect struct{}

func (cDialect) Name() string { return "c" }
func (cDialect) Open(src string) (asm.FuncReader, error) {
	r, err := minic.Open(src)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// CDialect is mini-C as a streaming asm.Dialect.
var CDialect asm.Dialect = cDialect{}

// DialectFor maps a language name ("asm"/"s", "c") to its Dialect.
func DialectFor(lang string) (asm.Dialect, error) {
	switch lang {
	case "asm", "s", "":
		return asm.Native, nil
	case "c":
		return CDialect, nil
	}
	return nil, fmt.Errorf("stream: unknown language %q", lang)
}

// funcOut is one function after scheduling: its stats, its input size
// and, when there is an output, its printed text.
type funcOut struct {
	st     xform.Stats
	instrs int
	buf    []byte
}

// Schedule streams src through parse → schedule → verify → print,
// writing the scheduled program to out (data directives first, then
// each function as soon as it and all its predecessors are done).
// A nil out discards the text but still schedules everything.
//
// Errors follow the materializing path's precedence: a front-end
// (parse) error wins over scheduling errors; otherwise the scheduling
// error of the earliest function in source order is returned.
func Schedule(ctx context.Context, d asm.Dialect, src string, cfg Config, out io.Writer) (Result, error) {
	var res Result
	r, err := d.Open(src)
	if err != nil {
		return res, err
	}
	if out != nil {
		var buf []byte
		for _, s := range r.Prog().Syms {
			buf = s.AppendString(buf)
		}
		if len(buf) > 0 {
			if _, err := out.Write(buf); err != nil {
				return res, err
			}
		}
	}
	err = core.RunFuncs(ctx, cfg.Opts.Parallelism, r.ParseFunc, func(f *ir.Func) (funcOut, error) {
		fo := funcOut{instrs: f.NumInstrs()}
		var err error
		if cfg.Pipeline != nil {
			fo.st, err = xform.RunCtx(ctx, f, cfg.Opts, *cfg.Pipeline)
		} else {
			fo.st.Stats, err = core.ScheduleNamed(ctx, f, cfg.Opts)
		}
		if err == nil && out != nil {
			fo.buf = f.AppendString(nil)
		}
		return fo, err
	}, func(fo funcOut) error {
		res.Stats.Add(fo.st)
		res.Funcs++
		res.Instrs += fo.instrs
		if out == nil {
			return nil
		}
		_, err := out.Write(fo.buf)
		return err
	})
	return res, err
}
