// Package parbudget implements the gsqlvet analyzer that keeps the
// worker budget airtight. The admission scheduler grants each query a
// worker count, and internal/par's helpers (par.Do, par.ForChunks, the
// solver pool) are where those grants are spent; a bare `go func`
// inside the engine's packages spawns concurrency the scheduler never
// sees, so under load the process runs more workers than it admitted —
// exactly the oversubscription the budget exists to prevent.
//
// Long-lived infrastructure goroutines (the HTTP listener, the cache
// sweeper, signal handlers) are not per-query work; they carry a
// justified //gsqlvet:allow parbudget annotation instead.
package parbudget

import (
	"go/ast"

	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/lintutil"
)

// Analyzer flags bare go statements in budget-governed packages.
var Analyzer = &analysis.Analyzer{
	Name: "parbudget",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !lintutil.InPackages(pass.Pkg.Path(), lintutil.BudgetedPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"bare goroutine spawn in budget-governed package %s: route per-query work through internal/par, or annotate an infrastructure goroutine with //gsqlvet:allow parbudget <reason>",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
