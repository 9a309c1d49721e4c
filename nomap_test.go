package pared

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// mapFree lists the package trees whose results must not depend on Go's
// randomized map iteration order: the partitioners, the refinement history,
// the solver, the engine that drives them and the experiments that print the
// paper's figures from them. Their non-test code names no map type, so no
// loop over a map can reach a partition, a mesh, a migration, a solution or
// a printed figure. Test files may use maps.
var mapFree = []string{
	"internal/core", "internal/graph", "internal/partition", "internal/pared",
	"internal/refine", "internal/forest", "internal/fem", "internal/la",
	"internal/experiments",
}

// TestNoMapInDeterministicPackages parses every non-test Go file under the
// mapFree trees — subpackages included, testdata excluded, whatever its build
// tags — and fails on each map type, naming its file and line. It parses
// only: a map reached through a type inferred from another package's
// function would pass, and none of these packages calls such a function.
func TestNoMapInDeterministicPackages(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range mapFree {
		files := 0
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				if m, ok := n.(*ast.MapType); ok {
					t.Errorf("%s: %s in a map-free package", fset.Position(m.Pos()), types.ExprString(m))
				}
				return true
			})
			return nil
		})
		if err != nil || files == 0 {
			t.Fatalf("%s: %d files parsed, err %v", root, files, err)
		}
	}
}
