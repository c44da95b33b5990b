// Streaming front-end: a Dialect turns one source unit into a
// FuncReader that yields ir.Funcs one at a time, so parse allocations
// are proportional to the largest function, not the whole program.
// Package asm implements the native assembly dialect here; package
// minic implements the same interface for mini-C, and internal/stream
// drives either through the overlapped parse→schedule→print pipeline.
package asm

import (
	"fmt"
	"io"
	"strings"

	"gsched/internal/ir"
)

// FuncReader streams the functions of one source unit in source order.
type FuncReader interface {
	// Prog returns the program skeleton. Global data symbols are
	// populated eagerly when the reader is opened (data directives may
	// appear anywhere in the source but print before all functions, so
	// streaming printers need them up front). Functions are NOT
	// appended: each ParseFunc result belongs to the caller, which may
	// AddFunc it to Prog or drop it after use to bound memory.
	Prog() *ir.Program

	// ParseFunc parses and returns the next function, or io.EOF when
	// the source is exhausted. Returned functions are fully validated
	// (structure and call targets, resolved against every function name
	// in the unit plus builtins). A unit that defines a name more than
	// once yields it once, at the position of its first definition,
	// with the body of its last (what Program.AddFunc makes of the
	// definitions in order); the shadowed definitions are syntax-checked
	// only.
	ParseFunc() (*ir.Func, error)
}

// Dialect is a source language with a streaming per-function parser.
type Dialect interface {
	// Name identifies the dialect ("asm", "c").
	Name() string
	// Open prepares src for streaming. It performs any whole-unit
	// prescan the dialect needs (data directives and the function name
	// set here; global declarations and function signatures for
	// mini-C) but does not parse function bodies.
	Open(src string) (FuncReader, error)
}

type nativeDialect struct{}

func (nativeDialect) Name() string                        { return "asm" }
func (nativeDialect) Open(src string) (FuncReader, error) { return NewReader(src) }

// Native is the assembly Dialect implemented by this package.
var Native Dialect = nativeDialect{}

// Reader is the native-assembly FuncReader.
type Reader struct {
	p          parser
	sc         lineScanner
	header     string // pending unconsumed "func ..." line
	headerLine int
	haveHeader bool
	defs       map[string]funcDef // every function name in the unit
	ordinal    int                // ordinal of the next function definition
}

// funcDef locates the definitions of one function name: the ordinals of
// its first and last, and the last one's header line with a scanner
// positioned just after it.
type funcDef struct {
	first, last int
	header      string
	at          lineScanner
}

// NewReader opens src for streaming. The prescan parses data
// directives (populating Prog().Syms in source order) and locates every
// function definition, for call-target validation and redefinitions.
func NewReader(src string) (*Reader, error) {
	r := &Reader{
		p:    parser{prog: ir.NewProgram()},
		sc:   lineScanner{src: src},
		defs: make(map[string]funcDef),
	}
	if err := r.prescan(src); err != nil {
		return nil, err
	}
	return r, nil
}

// Prog returns the program skeleton (symbols only; see FuncReader).
func (r *Reader) Prog() *ir.Program { return r.p.prog }

func (r *Reader) prescan(src string) error {
	sc := lineScanner{src: src}
	ord := 0
	for {
		raw, ok := sc.next()
		if !ok {
			return nil
		}
		line, _ := splitComment(raw)
		switch {
		case strings.HasPrefix(line, "data "):
			r.p.line = sc.line
			if err := r.p.parseData(line); err != nil {
				return err
			}
		case strings.HasPrefix(line, "func "):
			if name := funcName(line); name != "" {
				d, seen := r.defs[name]
				if !seen {
					d.first = ord
				}
				d.last, d.header, d.at = ord, line, sc
				r.defs[name] = d
			}
			ord++
		}
	}
}

// ParseFunc implements FuncReader.
func (r *Reader) ParseFunc() (*ir.Func, error) {
	p := &r.p
	for {
		for !r.haveHeader {
			raw, ok := r.sc.next()
			if !ok {
				return nil, io.EOF
			}
			line, _ := splitComment(raw)
			if line == "" {
				continue
			}
			p.line = r.sc.line
			switch {
			case strings.HasPrefix(line, "data "):
				// Fully parsed by the prescan; skip here.
			case strings.HasPrefix(line, "func "):
				r.header, r.headerLine, r.haveHeader = line, r.sc.line, true
			case strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t"):
				return nil, p.errf("label outside a function")
			default:
				return nil, p.errf("instruction outside a function")
			}
		}
		ord := r.ordinal
		r.ordinal++
		f, next, nextLine, err := r.parseDef(&r.sc, r.header, r.headerLine)
		if err != nil {
			return nil, err
		}
		r.header, r.headerLine, r.haveHeader = next, nextLine, next != ""
		d := r.defs[f.Name]
		if ord != d.first {
			continue // a redefinition: the name was yielded at its first
		}
		if ord != d.last {
			// Shadowed, so only syntax-checked: yield the last
			// definition's body in its place.
			at := d.at
			if f, _, _, err = r.parseDef(&at, d.header, at.line); err != nil {
				return nil, err
			}
		}
		if err := r.validate(f); err != nil {
			return nil, err
		}
		return f, nil
	}
}

// parseDef parses the function whose header line is header (at line
// headerLine) and whose body follows on sc, up to the next "func" line
// or the end of the source. It returns that "func" line and its number
// ("" at the end).
func (r *Reader) parseDef(sc *lineScanner, header string, headerLine int) (f *ir.Func, next string, nextLine int, err error) {
	p := &r.p
	p.line = headerLine
	if err := p.beginFunc(header); err != nil {
		return nil, "", 0, err
	}
	for next == "" {
		raw, ok := sc.next()
		if !ok {
			break
		}
		line, comment := splitComment(raw)
		if line == "" {
			continue
		}
		p.line, p.comment = sc.line, comment
		switch {
		case strings.HasPrefix(line, "data "):
			// Prescanned; a data directive does not end the function.
		case strings.HasPrefix(line, "func "):
			next, nextLine = line, sc.line
		case strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t"):
			p.b = p.f.NewBlock(strings.TrimSuffix(line, ":"))
		default:
			if err := p.parseInstr(line); err != nil {
				return nil, "", 0, err
			}
		}
	}
	f = p.f
	p.f, p.b = nil, nil
	f.ReindexBlocks()
	return f, next, nextLine, nil
}

// validate applies the same checks Program.Validate would: structural
// invariants plus call-target resolution against the unit's function
// name set and the simulator builtins.
func (r *Reader) validate(f *ir.Func) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("asm: %w", err)
	}
	var err error
	f.Instrs(func(b *ir.Block, i *ir.Instr) {
		if err != nil || i.Op != ir.OpCall {
			return
		}
		if _, ok := r.defs[i.Target]; !ok && !ir.IsBuiltin(i.Target) {
			err = fmt.Errorf("asm: %s: call to undefined function %q", f.Name, i.Target)
		}
	})
	return err
}
