package lint_test

import (
	"strings"
	"testing"

	"graphsql/internal/lint"
	"graphsql/internal/lint/analysistest"
	"graphsql/internal/lint/driver"
)

// TestRepoIsClean runs the full gsqlvet suite over every package in the
// module and requires zero findings. This is the anti-rot guard: the
// moment a finding is tolerated "for now", the suite becomes a warning
// stream nobody reads, so HEAD must always be clean — fix the code or
// carry a justified //gsqlvet:allow.
// maxCtxpropAllows pins the number of justified context.Background()
// sites in request-path packages; it may only go down.
const maxCtxpropAllows = 3

func TestRepoIsClean(t *testing.T) {
	env := analysistest.SharedEnv(t)
	pkgs, err := env.Load()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	targets := make([]*driver.Target, 0, len(pkgs))
	ctxpropAllows := 0
	for _, p := range pkgs {
		targets = append(targets, &driver.Target{
			Fset: p.Fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.TypesInfo,
		})
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//gsqlvet:allow ctxprop ") {
						ctxpropAllows++
					}
				}
			}
		}
	}
	// Ratchet: every ctxprop allow is a place cancellation stops
	// propagating. The survivors are library entry points that take no
	// context by design; a new one needs one of these retired first.
	if ctxpropAllows > maxCtxpropAllows {
		t.Errorf("%d //gsqlvet:allow ctxprop annotations, want <= %d: thread the caller's context instead of adding an allow",
			ctxpropAllows, maxCtxpropAllows)
	}
	findings, err := driver.Run(lint.Analyzers, targets)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
	if len(findings) > 0 {
		t.Errorf("gsqlvet found %d violation(s) at HEAD; fix them or annotate with a justified //gsqlvet:allow", len(findings))
	}
}
