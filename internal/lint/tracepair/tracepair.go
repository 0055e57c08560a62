// Package tracepair implements the gsqlvet analyzer that keeps trace
// spans from leaking open. A span opened with trace.Trace.Begin and
// never closed with End stays "in flight" forever: GET /queries shows
// the query stuck in that stage, CurrentStage reports it as live, and
// EXPLAIN ANALYZE renders its duration as still-running. The runtime
// cannot catch this — End on a nil trace is a no-op by design, so a
// missing End is silent.
//
// The analyzer tracks every `sp := tr.Begin(...)` whose result lands in
// a plain local variable and requires one of:
//
//   - a deferred End covering the whole function (`defer tr.End(sp)`,
//     or a deferred closure containing `tr.End(sp)`), or
//   - an End on every path: no return statement may appear between the
//     Begin and the first End of that span (position order — the
//     standard Begin / work / End / check-err shape passes, while
//     Begin / early-return-on-err / End is flagged).
//
// A Begin whose result is discarded (not assigned, or assigned to _) is
// always flagged: nothing can ever close that span. Results stored
// into struct fields (span handed off to another owner, e.g.
// exec.Context.TraceSpan) are not tracked — ownership transfers are the
// annotated exception, not the rule.
package tracepair

import (
	"go/ast"
	"go/token"
	"go/types"

	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/lintutil"
)

// Analyzer flags trace spans that are opened but not closed on all
// paths.
var Analyzer = &analysis.Analyzer{
	Name: "tracepair",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// isTraceMethod reports whether call invokes the named method on
// *trace.Trace.
func isTraceMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	return lintutil.NamedFromPackage(selection.Recv(), lintutil.TracePackage) != nil
}

// checkFunc analyzes one function body. Function literals are scanned
// as part of the enclosing body: a deferred closure may close a span,
// and a literal's own Begin finds its End wherever it sits in the
// declaration. Returns inside literals never count against an
// enclosing span (returnBetween skips them).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	type begin struct {
		call *ast.CallExpr
		obj  types.Object // nil when the result is discarded
	}
	var begins []begin

	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range t.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isTraceMethod(pass.TypesInfo, call, "Begin") {
					continue
				}
				// Parallel assignment only: sp := tr.Begin(...) has one
				// rhs per lhs here (Begin returns one value).
				if len(t.Lhs) != len(t.Rhs) {
					continue
				}
				switch lhs := t.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						begins = append(begins, begin{call: call})
						continue
					}
					obj := pass.TypesInfo.Defs[lhs]
					if obj == nil {
						obj = pass.TypesInfo.Uses[lhs]
					}
					begins = append(begins, begin{call: call, obj: obj})
				default:
					// Stored into a field or element: ownership handoff,
					// tracked by the receiving code, not here.
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(t.X).(*ast.CallExpr); ok && isTraceMethod(pass.TypesInfo, call, "Begin") {
				begins = append(begins, begin{call: call})
			}
		}
		return true
	})

	for _, b := range begins {
		if b.obj == nil {
			pass.Reportf(b.call.Pos(), "span from Begin is discarded; nothing can End it")
			continue
		}
		deferred, ends := endsFor(pass, body, b.obj)
		if deferred {
			continue
		}
		if len(ends) == 0 {
			pass.Reportf(b.call.Pos(), "span %q is never closed: no End(%s) in this function (defer it after Begin)", b.obj.Name(), b.obj.Name())
			continue
		}
		firstEnd := ends[0]
		for _, e := range ends[1:] {
			if e < firstEnd {
				firstEnd = e
			}
		}
		if ret := returnBetween(body, b.call.End(), firstEnd); ret != token.NoPos {
			pass.Reportf(ret, "return leaks span %q opened at %s: End it before returning or defer the End",
				b.obj.Name(), pass.Fset.Position(b.call.Pos()))
		}
	}
}

// endsFor collects the positions of End calls whose argument is obj.
// deferred reports whether one of them runs under a defer (directly or
// inside a deferred function literal), which covers every path.
func endsFor(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) (deferred bool, ends []token.Pos) {
	isEndOf := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isTraceMethod(pass.TypesInfo, call, "End") {
			return false
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.DeferStmt:
			if isEndOf(t.Call) {
				deferred = true
				return false
			}
			// defer func() { ... tr.End(sp) ... }()
			if lit, ok := ast.Unparen(t.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					if isEndOf(inner) {
						deferred = true
						return false
					}
					return true
				})
				if deferred {
					return false
				}
			}
		case *ast.CallExpr:
			if isEndOf(t) {
				ends = append(ends, t.Pos())
			}
		}
		return true
	})
	return deferred, ends
}

// returnBetween returns the position of the first return statement
// strictly between from and to, or NoPos. Returns inside nested
// function literals belong to the literal, not this function, and are
// skipped.
func returnBetween(body *ast.BlockStmt, from, to token.Pos) token.Pos {
	found := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() > from && ret.Pos() < to {
			found = ret.Pos()
			return false
		}
		return true
	})
	return found
}
