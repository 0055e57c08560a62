package lint_test

import (
	"strings"
	"testing"

	"graphsql/internal/lint"
	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/analysistest"
)

// maxCtxpropAllows pins the number of justified context.Background()
// sites in request-path packages; it may only go down.
const maxCtxpropAllows = 3

// TestRepoIsClean runs the full gsqlvet suite over every package in the
// module and requires zero findings. This is the anti-rot guard: the
// moment a finding is tolerated "for now", the suite becomes a warning
// stream nobody reads, so HEAD must always be clean — fix the code or
// carry a justified //gsqlvet:allow.
func TestRepoIsClean(t *testing.T) {
	env := analysistest.SharedEnv(t)
	pkgs, err := env.Load()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	ctxpropAllows, findings := 0, 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//gsqlvet:allow ctxprop ") {
						ctxpropAllows++
					}
				}
			}
		}
		diags, err := analysis.Run(lint.Analyzers, p.Fset, p.Files, p.Types, p.TypesInfo)
		if err != nil {
			t.Fatalf("running analyzers: %v", err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", p.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		findings += len(diags)
	}
	// Ratchet: every ctxprop allow is a place cancellation stops
	// propagating. The survivors are library entry points that take no
	// context by design; a new one needs one of these retired first.
	if ctxpropAllows > maxCtxpropAllows {
		t.Errorf("%d //gsqlvet:allow ctxprop annotations, want <= %d: thread the caller's context instead of adding an allow",
			ctxpropAllows, maxCtxpropAllows)
	}
	if findings > 0 {
		t.Errorf("gsqlvet found %d violation(s) at HEAD; fix them or annotate with a justified //gsqlvet:allow", findings)
	}
}
