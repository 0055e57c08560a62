// Package lint assembles the gsqlvet analyzer suite: custom static
// analyzers that mechanically enforce the engine's cross-cutting
// invariants — the ones the type system cannot express and no test
// catches, because the violation sits on a path no test opens. Each
// analyzer's package documents the invariant it guards; this package
// is just the roster.
//
// The suite runs as tests: `go test ./internal/lint` runs
// TestRepoIsClean, which checks every production package in the module,
// and `go test ./internal/lint/...` adds each analyzer's fixture tests.
// Suppress a finding with a justified annotation on or directly above
// the offending line:
//
//	//gsqlvet:allow <analyzer> <reason>
//
// An annotation without a reason is itself a finding.
package lint

import (
	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/ctxprop"
	"graphsql/internal/lint/cursorpair"
	"graphsql/internal/lint/determinism"
	"graphsql/internal/lint/faultpoint"
	"graphsql/internal/lint/parbudget"
	"graphsql/internal/lint/tracepair"
)

// Analyzers is the full gsqlvet suite, in stable order.
var Analyzers = []*analysis.Analyzer{
	ctxprop.Analyzer,
	cursorpair.Analyzer,
	determinism.Analyzer,
	faultpoint.Analyzer,
	parbudget.Analyzer,
	tracepair.Analyzer,
}
