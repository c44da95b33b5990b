package verify_test

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestVerifyImportsOnlyIR pins the verifier's independence: its
// non-test files import the standard library and internal/ir, nothing
// else. Sharing an analysis with internal/cfg or internal/pdg (say,
// cfg.Reach to go faster) would let one bug hide in both the scheduler
// and the oracle meant to catch it.
func TestVerifyImportsOnlyIR(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		files++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(path, "/")
			std := !strings.Contains(first, ".") && first != "gsched"
			if !std && path != "gsched/internal/ir" {
				t.Errorf("%s imports %q; internal/verify may import only the standard library and gsched/internal/ir",
					fset.Position(imp.Pos()), path)
			}
		}
	}
	if files == 0 {
		t.Fatal("no non-test Go files found")
	}
}
