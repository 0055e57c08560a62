// Package loader type-checks the module's packages for the gsqlvet
// analyzers, using only the standard library and the go command. The
// self-check test and the fixture harness both load through it.
//
// Loading is two-phase, mirroring how real vet drivers work:
//
//  1. `go list -e -json -deps -export ./...` enumerates the module's
//     packages and every dependency, compiling each dependency's export
//     data into the build cache and reporting its file path. This works
//     fully offline: the module has no external dependencies, and the
//     go command never touches the network for in-module listings.
//  2. Each target package's production sources (GoFiles — never
//     _test.go files) are parsed and type-checked with go/types, with
//     imports resolved through a gc-export-data importer reading the
//     files phase 1 reported.
//
// The same export-data map also serves the fixture harness: testdata
// packages import real engine packages (trace, fault, exec), and their
// export data comes from the same `go list` sweep.
package loader

import (
	"bytes"
	"encoding/json"
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

// Package is one type-checked target package.
type Package struct {
	// Fset positions the package's syntax.
	Fset *token.FileSet
	// Files is the parsed production syntax (GoFiles only).
	Files []*ast.File
	// Types is the type-checker's package object.
	Types *types.Package
	// TypesInfo carries expression types, uses, defs and selections.
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
	DepsErrors []*struct{ Err string }
}

// Env binds a loader to a module: the export-data index built by one
// `go list` sweep, reusable across many Load/CheckDir calls.
type Env struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	exports    map[string]string // import path -> export data file
	targets    []*listedPackage  // in-module packages from the sweep
	imp        types.Importer
	fset       *token.FileSet
}

// NewEnv runs the go list sweep over ./... from the module root and
// returns an environment that can type-check both the module's packages
// and ad-hoc fixture directories against them.
func NewEnv(moduleRoot string) (*Env, error) {
	cmd := exec.Command("go", "list", "-e", "-json", "-deps", "-export", "./...")
	cmd.Dir = moduleRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	env := &Env{
		ModuleRoot: moduleRoot,
		exports:    make(map[string]string),
		fset:       token.NewFileSet(),
	}
	dec := json.NewDecoder(out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("go list: decoding output: %v (stderr: %s)", err, stderr.String())
		}
		if p.Export != "" {
			env.exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && !p.Standard {
			q := p
			env.targets = append(env.targets, &q)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %v (stderr: %s)", err, stderr.String())
	}
	env.imp = importer.ForCompiler(env.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := env.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return env, nil
}

// ModuleRoot locates the enclosing module's root directory via
// `go env GOMOD`, starting from dir (empty = current directory).
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// Load type-checks every in-module package the sweep found and returns
// them in listing order. A package that fails to parse or type-check
// returns an error: the analyzers assume well-typed input, and the
// tree is expected to build (tier-1) before it is vetted.
func (e *Env) Load() ([]*Package, error) {
	var out []*Package
	for _, lp := range e.targets {
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := e.check(lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// CheckDir parses every non-test .go file in dir and type-checks the
// package under the given import path. The fixture harness uses this to
// place a testdata package at an invariant-gated path (say,
// graphsql/internal/exec/fixture) without the package living there.
func (e *Env) CheckDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	return e.check(importPath, files)
}

// check parses and type-checks one package from explicit file paths.
func (e *Env) check(importPath string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(e.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", importPath, err)
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: e.imp}
	tpkg, err := conf.Check(importPath, e.fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("%s: typecheck: %v", importPath, err)
	}
	return &Package{
		Fset:      e.fset,
		Files:     syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
