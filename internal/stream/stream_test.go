package stream

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/progen"
	"gsched/internal/xform"
)

func jobsSweep() []int {
	set := map[int]bool{1: true, 4: true, runtime.NumCPU(): true}
	var out []int
	for _, j := range []int{1, 4, runtime.NumCPU()} {
		if set[j] {
			out = append(out, j)
			set[j] = false
		}
	}
	return out
}

// materialize parses src the old way: whole program at once.
func materialize(t *testing.T, src, lang string) *ir.Program {
	t.Helper()
	var p *ir.Program
	var err error
	if lang == "c" {
		p, err = minic.Compile(src)
	} else {
		p, err = asm.Parse(src)
	}
	if err != nil {
		t.Fatalf("materialize %s: %v", lang, err)
	}
	return p
}

// oldBytes runs the barrier pipeline: parse everything, schedule the
// whole program, print the whole program.
func oldBytes(t *testing.T, src, lang string, cfg Config) (string, xform.Stats) {
	t.Helper()
	p := materialize(t, src, lang)
	var st xform.Stats
	var err error
	if cfg.Pipeline != nil {
		st, err = xform.RunProgram(p, cfg.Opts, *cfg.Pipeline)
	} else {
		st.Stats, err = core.ScheduleProgram(p, cfg.Opts)
	}
	if err != nil {
		t.Fatalf("old pipeline: %v", err)
	}
	return asm.Print(p), st
}

func streamBytes(t *testing.T, src, lang string, cfg Config) (string, Result) {
	t.Helper()
	d, err := DialectFor(lang)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := Schedule(context.Background(), d, src, cfg, &buf)
	if err != nil {
		t.Fatalf("stream (jobs=%d): %v", cfg.Opts.Parallelism, err)
	}
	return buf.String(), res
}

// redefine appends to the asm source src one more definition per pair
// {name, body}: function name, with the text of function body.
func redefine(src string, pairs ...[2]string) string {
	var sb strings.Builder
	sb.WriteString(src)
	for _, p := range pairs {
		name, body := p[0], p[1]
		text := src[strings.Index(src, "func "+body+" "):]
		if end := strings.Index(text, "\nfunc "); end >= 0 {
			text = text[:end+1]
		}
		sb.WriteString("func " + name + strings.TrimPrefix(text, "func "+body))
	}
	return sb.String()
}

// TestStreamMatchesMaterialized: the streaming pipeline produces
// byte-identical scheduled output and identical merged stats to the
// materializing path, for both dialects, both drivers, several levels,
// and every jobs setting.
func TestStreamMatchesMaterialized(t *testing.T) {
	type unit struct {
		name, src, lang string
	}
	var units []unit
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := progen.New(seed).Source
		units = append(units, unit{name: "progen-c", src: src, lang: "c"})
		// The same program as assembly exercises the asm dialect.
		prog, err := minic.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{name: "progen-asm", src: asm.Print(prog), lang: "asm"})
	}
	units = append(units, unit{name: "huge", src: progen.Huge(3, 2500).Source, lang: "asm"})
	// Redefined functions: each name is emitted once, at its first
	// definition, with the body of its last.
	dupBase := progen.Huge(5, 600).Source
	units = append(units,
		unit{name: "dup-twice", src: redefine(dupBase, [2]string{"F1", "F3"}), lang: "asm"},
		unit{name: "dup-thrice", src: redefine(dupBase, [2]string{"F2", "F4"}, [2]string{"F2", "F5"}), lang: "asm"})

	// Difftest reproducers: historical scheduler-bug witnesses.
	repros, _ := filepath.Glob("../../testdata/difftest/*.asm")
	for _, path := range repros {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{name: filepath.Base(path), src: string(data), lang: "asm"})
	}
	if len(repros) == 0 {
		t.Log("no difftest reproducers found; corpus reduced")
	}

	mach := machine.RS6K()
	pipe := xform.DefaultConfig()
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"plain-spec", Config{Opts: core.Defaults(mach, core.LevelSpeculative)}},
		{"plain-useful", Config{Opts: core.Defaults(mach, core.LevelUseful)}},
		{"pipe-spec", Config{Opts: core.Defaults(mach, core.LevelSpeculative), Pipeline: &pipe}},
		{"pipe-dup", Config{Opts: core.Defaults(mach, core.LevelDup), Pipeline: &pipe}},
	}
	for _, c := range cfgs {
		c.cfg.Opts.Verify = true
		for _, u := range units {
			want, wantSt := oldBytes(t, u.src, u.lang, c.cfg)
			for _, jobs := range jobsSweep() {
				cfg := c.cfg
				cfg.Opts.Parallelism = jobs
				got, res := streamBytes(t, u.src, u.lang, cfg)
				if got != want {
					t.Fatalf("%s/%s jobs=%d: stream output differs from materialized output", c.name, u.name, jobs)
				}
				if res.Stats != wantSt {
					t.Fatalf("%s/%s jobs=%d: stats = %+v, want %+v", c.name, u.name, jobs, res.Stats, wantSt)
				}
			}
		}
	}
}

// TestStreamHugeJobsSweep pins the determinism contract at scale:
// parse → schedule → print over a Huge corpus program is byte-identical
// at -jobs 1, 4, and NumCPU. Small fixed seed so it stays CI-fast and
// race-detector-friendly.
func TestStreamHugeJobsSweep(t *testing.T) {
	target := 3000
	if testing.Short() {
		target = 800
	}
	src := progen.Huge(7, target).Source
	pipe := xform.DefaultConfig()
	cfg := Config{
		Opts:     core.Defaults(machine.RS6K(), core.LevelSpeculative),
		Pipeline: &pipe,
	}
	var base string
	for _, jobs := range jobsSweep() {
		cfg.Opts.Parallelism = jobs
		got, _ := streamBytes(t, src, "asm", cfg)
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("jobs=%d: output differs from jobs=1", jobs)
		}
	}
}

// TestStreamOptimalLevel: the exact tier works per-function under the
// streaming driver too (tiny program; the search is expensive).
func TestStreamOptimalLevel(t *testing.T) {
	src := "func f r1 r2:\n\tA r3=r1,r2\n\tMUL r4=r1,r2\n\tS r5=r3,r4\n\tRET r5\nfunc g r1:\n\tAI r2=r1,3\n\tRET r2\n"
	cfg := Config{Opts: core.Defaults(machine.RS6K(), core.LevelOptimal)}
	want, _ := oldBytes(t, src, "asm", cfg)
	got, _ := streamBytes(t, src, "asm", cfg)
	if got != want {
		t.Fatalf("optimal: stream differs:\n%s\nvs\n%s", got, want)
	}
}

// TestStreamErrors: front-end errors surface with the materializing
// path's messages.
func TestStreamErrors(t *testing.T) {
	cfg := Config{Opts: core.Defaults(machine.RS6K(), core.LevelSpeculative)}
	cfg.Opts.Parallelism = 2
	cases := []struct {
		name, src, lang, want string
	}{
		{"asm-syntax", "func f:\n\tFROB r1\n\tRET", "asm", "unknown mnemonic"},
		{"asm-undef-call", "func f:\n\tCALL missing\n\tRET", "asm", "undefined function"},
		{"c-syntax", "int main() { return }", "c", "expected expression"},
		{"c-undef-call", "int main() { return nope(); }", "c", "undefined function"},
	}
	for _, tc := range cases {
		d, err := DialectFor(tc.lang)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Schedule(context.Background(), d, tc.src, cfg, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}

}

// TestStreamNilWriter: scheduling without output works (bench mode).
func TestStreamNilWriter(t *testing.T) {
	src := progen.Huge(1, 500).Source
	cfg := Config{Opts: core.Defaults(machine.RS6K(), core.LevelSpeculative)}
	cfg.Opts.Parallelism = 2
	res, err := Schedule(context.Background(), asm.Native, src, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Funcs == 0 || res.Instrs < 500 {
		t.Errorf("res = %+v, want funcs > 0 and instrs >= 500", res)
	}
}
