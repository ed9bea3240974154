package vexsmt_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicAPIBoundary holds the sweep commands and the examples to the
// public API: none of their files may import vexsmt/internal/... (the VEX
// toolchain CLIs, vexsim, vexasm and tracegen, are exempt). README makes
// the same claim.
func TestPublicAPIBoundary(t *testing.T) {
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, "cmd/paperbench", "cmd/vexsmtd", "cmd/vexsmtctl")
	fset := token.NewFileSet()
	files := 0
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if p == "vexsmt/internal" || strings.HasPrefix(p, "vexsmt/internal/") {
					t.Errorf("%s imports %s; use vexsmt/pkg/... instead", path, p)
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("no Go files found under examples/ or the sweep commands")
	}
}
