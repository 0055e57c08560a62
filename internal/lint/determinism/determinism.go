// Package determinism implements the gsqlvet analyzer protecting the
// engine's bit-identical-results guarantee. Every result a query
// produces must be byte-for-byte identical at every worker count and
// across runs, and iterating a map while building output breaks that
// silently: map iteration order is deliberately randomized, and a
// small map can come out in one order often enough to pass a test.
//
// The analyzer flags a `for range` over a map whose body appends to (or
// index-assigns into) a slice declared outside the loop, unless the
// function later passes that slice through a sort (sort.*, slices.Sort*
// or any sort-named helper): collect-then-sort is the sanctioned
// pattern (see storage.Catalog.TableNames or the server's metrics
// exposition). Writes into maps are order-independent and ignored.
//
// Clocks and math/rand in result-producing code are not checked here:
// every such value planted where it reaches results failed the
// differential, golden or sort-stability tests.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/lintutil"
)

// Analyzer flags map iteration that builds unsorted slice output in
// result-producing packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !lintutil.InPackages(pass.Pkg.Path(), lintutil.ResultPathPackages) {
		return nil
	}
	for _, f := range pass.Files {
		// Walk per enclosing function so the "following sort" scan has a
		// scope to search.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkFunc checks the map loops inside one function body. Function
// literals nested in body are scanned as part of it: a sort after the
// loop in the enclosing function still sanctions a closure's map-fed
// append.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, obj := range slicesWritten(pass, rs) {
			if !sortedAfter(pass, body, rs, obj) {
				pass.Reportf(rs.Pos(),
					"map iteration writes to slice %q in nondeterministic order with no following sort; sort the result or iterate a deterministically ordered copy of the keys",
					obj.Name())
			}
		}
		return true
	})
}

// slicesWritten collects the slice-typed variables declared outside the
// range loop that its body assigns into — via s = append(s, ...),
// s[i] = v, or any other assignment to the variable.
func slicesWritten(pass *analysis.Pass, rs *ast.RangeStmt) []types.Object {
	seen := map[types.Object]bool{}
	var out []types.Object
	record := func(e ast.Expr) {
		// Unwrap s[i] = v and s[i][j] = v down to the root identifier.
		for {
			if ix, ok := e.(*ast.IndexExpr); ok {
				e = ix.X
				continue
			}
			break
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		// Variables born inside the loop body are per-iteration scratch;
		// order cannot leak through them unless they escape, which a
		// further outer-variable write would catch.
		if v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
			return
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range t.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(t.X)
		}
		return true
	})
	return out
}

// sortedAfter reports whether, after the range loop, the function calls
// a sort-shaped function mentioning obj: a function from package sort
// or slices whose name starts with Sort, or any callee whose name
// contains "sort" (mergeAscending-style helpers declare their ordering
// in their name or are annotated instead).
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		// The sorted value must be the one the loop built.
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					mentioned = true
					return false
				}
				return true
			})
			if mentioned {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fn.Sel]; ok && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sort":
				switch obj.Name() {
				case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
					return true
				}
				return false
			case "slices":
				return strings.HasPrefix(obj.Name(), "Sort")
			}
		}
		return strings.Contains(strings.ToLower(fn.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fn.Name), "sort")
	}
	return false
}
