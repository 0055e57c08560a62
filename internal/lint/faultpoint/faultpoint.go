// Package faultpoint implements the gsqlvet analyzer that keeps fault
// injection sites honest. Every fault.Inject call must name a point in
// fault.Registry — the registry is what docs/FAULTPOINTS.md is
// generated from and what GSQLD_FAULTS specs are validated against, so
// an unregistered point is invisible to operators and unreachable from
// a chaos schedule; it would silently never fire. The analyzer imports
// the registry directly, so registering a point and planting it cannot
// drift apart.
//
// Point names must also constant-fold at compile time: a point computed
// at runtime cannot be cross-checked here or listed in the docs.
//
// Literal schedule strings handed to fault.Parse or fault.SetSpec are
// parsed at vet time with the real parser, surfacing grammar errors and
// typo'd point names without running anything.
package faultpoint

import (
	"go/ast"
	"go/constant"

	"graphsql/internal/fault"
	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/lintutil"
)

// Analyzer flags fault.Inject calls naming unregistered or
// non-constant points, and unparseable literal schedules.
var Analyzer = &analysis.Analyzer{
	Name: "faultpoint",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case lintutil.IsPkgFunc(pass.TypesInfo, call, lintutil.FaultPackage, "Inject"):
				checkInject(pass, call)
			case lintutil.IsPkgFunc(pass.TypesInfo, call, lintutil.FaultPackage, "Parse", "SetSpec"):
				checkSpec(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkInject(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	name, ok := constString(pass, arg)
	if !ok {
		pass.Reportf(arg.Pos(),
			"fault.Inject point is not a compile-time constant; use a registered fault.Point* constant so the site stays listed in fault.Registry")
		return
	}
	if !fault.Known(name) {
		pass.Reportf(arg.Pos(),
			"fault.Inject names unregistered point %q; add it to fault.Registry (and regenerate docs/FAULTPOINTS.md) or this site can never fire",
			name)
	}
}

// checkSpec vets literal schedule strings with the real parser. Only
// constant arguments are checked — runtime specs (GSQLD_FAULTS) are
// validated by Parse itself at arm time.
func checkSpec(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	spec, ok := constString(pass, call.Args[0])
	if !ok {
		return
	}
	if _, err := fault.Parse(spec); err != nil {
		pass.Reportf(call.Args[0].Pos(), "invalid fault schedule literal: %v", err)
	}
}

func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
