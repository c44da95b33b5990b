package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseLevel: -level takes every name Level.String gives, the
// server's too, and rejects the rest.
func TestParseLevel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.c")
	if err := os.WriteFile(path, []byte(`int f(int a) { return a * 7; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	*machineF, *pipeline, *run, *dot, *lang = "rs6k", true, "", "", ""
	defer func() { *level = "speculative" }()
	for _, name := range []string{"none", "useful", "speculative", "dup", "optimal"} {
		*level = name
		if err := realMain(path); err != nil {
			t.Errorf("-level %s: %v", name, err)
		}
	}
	for _, bad := range []string{"", "bogus", "Speculative", "base", "level?"} {
		*level = bad
		if err := realMain(path); err == nil || !strings.Contains(err.Error(), "unknown level") {
			t.Errorf("-level %q: got %v, want an unknown level error", bad, err)
		}
	}
}

// TestParseMachine: -machine takes every name of machine.ByName's
// table, the server's too, and rejects the rest.
func TestParseMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.c")
	if err := os.WriteFile(path, []byte(`int f(int a) { return a * 7; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	*level, *pipeline, *run, *dot, *lang = "speculative", true, "", "", ""
	defer func() { *machineF = "rs6k" }()
	for _, name := range []string{"rs6k", "scalar", "wide", "4x2"} {
		*machineF = name
		if err := realMain(path); err != nil {
			t.Errorf("-machine %s: %v", name, err)
		}
	}
	for _, bad := range []string{"", "x", "0x1", "axb", "3", "RS6K"} {
		*machineF = bad
		if err := realMain(path); err == nil || !strings.Contains(err.Error(), "unknown machine") {
			t.Errorf("-machine %q: got %v, want an unknown machine error", bad, err)
		}
	}
}

func TestRealMainCompilesAndRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.c")
	src := `int f(int a) { return a * 7; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Exercise realMain with flags set directly.
	*level = "speculative"
	*machineF = "rs6k"
	*pipeline = true
	*printAsm = false
	*run = "f"
	*argsF = "6"
	*stats = false
	*lang = ""
	*dot = ""
	*trace = 0
	if err := realMain(path); err != nil {
		t.Fatalf("realMain: %v", err)
	}
}

func TestRealMainRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.c")
	if err := os.WriteFile(path, []byte("int f( {"), 0o644); err != nil {
		t.Fatal(err)
	}
	*run = ""
	*dot = ""
	if err := realMain(path); err == nil {
		t.Error("broken source accepted")
	}
	if err := realMain(filepath.Join(dir, "missing.c")); err == nil {
		t.Error("missing file accepted")
	}
}
