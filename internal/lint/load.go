package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Load resolves the package patterns ("./...", directories) with `go list`,
// run in dir, and parses and type-checks the matched packages from source.
// `go list` applies the default build constraints, so paredassert-gated files
// are excluded exactly as `go build ./...` excludes them, and ./... skips
// testdata. Project packages the matches import are type-checked too, in
// dependency order; the standard library comes through the source importer.
func Load(dir string, patterns []string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly"}, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go list: %s", strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	project := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := project[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var typeErrs []error
	conf := types.Config{Importer: imp, Error: func(err error) { typeErrs = append(typeErrs, err) }}
	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listed
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue // the standard library is imported, test-only packages have nothing to check
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		tpkg, _ := conf.Check(lp.ImportPath, fset, files, info)
		project[lp.ImportPath] = tpkg
		if !lp.DepOnly {
			pkgs = append(pkgs, &Package{Path: lp.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info})
		}
	}
	if len(typeErrs) > 0 {
		return pkgs, fmt.Errorf("lint: %d type error(s), first: %v", len(typeErrs), typeErrs[0])
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
