package analysis

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
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, type-checked package of the module under
// analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// Load type-checks every main-module package matched by patterns, resolved
// in the module directory dir ("" is the current directory), and returns
// them ready for analysis. It has no dependency beyond the go tool itself:
// package structure and export data come from `go list -json -export
// -deps`, sources are parsed with go/parser, and imports are resolved
// through the compiler's export data with importer.ForCompiler — so loading
// works offline and never touches the network or the module proxy.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// One walk of the import graph yields everything: which packages are
	// ours (Module.Main) and the export-data file of every dependency.
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("analysis: go list %s: %s", strings.Join(patterns, " "), msg)
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.Main {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		// Only the package's ordinary files are analyzed: test files would
		// need the test-variant dependency closure for their export data,
		// and the check is a production-code rule (tests legitimately use
		// context.Background).
		var parsed []*ast.File
		for _, gf := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, gf), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: parsing %s: %w", gf, err)
			}
			parsed = append(parsed, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		var tcErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { tcErrs = append(tcErrs, err) },
		}
		tpkg, err := conf.Check(t.ImportPath, fset, parsed, info)
		if len(tcErrs) > 0 {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", t.ImportPath, errors.Join(tcErrs...))
		}
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Fset:       fset,
			Files:      parsed,
			Types:      tpkg,
			Info:       info,
		})
	}
	return pkgs, nil
}
