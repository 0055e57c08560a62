// Package ctxprop implements the gsqlvet analyzer that keeps the
// request path cancellable: inside the packages every query flows
// through, constructing a detached context with context.Background()
// or context.TODO() severs the cancellation chain the server threads
// from the HTTP request down to the solver's frontier loops. A query
// running under a detached context cannot be stopped by client
// disconnect, statement timeout, or shutdown — exactly the class of
// bug the facade→engine→exec→solver ctx threading work eliminated.
//
// Compatibility shims that intentionally detach (the non-ctx facade
// wrappers like Engine.Query, or bulk-encode entry points used outside
// any request) carry a justified //gsqlvet:allow ctxprop annotation.
package ctxprop

import (
	"go/ast"

	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/lintutil"
)

// Analyzer flags context.Background()/context.TODO() calls in
// request-path packages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxprop",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !lintutil.InPackages(pass.Pkg.Path(), lintutil.RequestPathPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lintutil.IsPkgFunc(pass.TypesInfo, call, "context", "Background", "TODO") {
				pass.Reportf(call.Pos(),
					"detached context in request-path package %s: thread the caller's ctx instead of context.%s()",
					pass.Pkg.Path(), calleeName(pass, call))
			}
			return true
		})
	}
	return nil
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return "Background"
}
