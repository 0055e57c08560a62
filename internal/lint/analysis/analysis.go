// Package analysis is the stdlib-only core of gsqlvet, the engine's
// custom static-analysis suite. It borrows the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the
// invariant checkers under internal/lint read like upstream vet passes,
// but it depends on nothing outside the standard library: the module
// takes no dependencies, so the framework the analyzers run on lives
// here in miniature.
//
// An Analyzer's Run receives one type-checked package (syntax,
// *types.Package, *types.Info) and reports position-anchored
// diagnostics. Facts (cross-package analysis state) are unsupported —
// every gsqlvet invariant is checkable package-locally because the
// things it guards (context construction, map iteration order, span
// and cursor pairing, fault-point names, goroutine spawns) are
// properties of the code at the violation site.
//
// # Suppression
//
// A diagnostic is suppressed by an explicit, justified annotation:
//
//	//gsqlvet:allow <analyzer> <reason...>
//
// placed either on the flagged line (trailing) or on the line directly
// above it. The reason is mandatory; an annotation without one is
// itself reported, so the allowlist can never decay into bare
// switch-offs. Suppression is applied by Run, not by analyzers, so
// every analyzer gets it uniformly.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //gsqlvet:allow annotations. Lower-case, no spaces.
	Name string
	// Run checks one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	// Fset maps token.Pos to file positions for every file in the pass.
	Fset *token.FileSet
	// Files is the package's parsed syntax (production files only; the
	// loader does not feed _test.go files to analyzers).
	Files []*ast.File
	// Pkg is the type-checked package. Path-gated analyzers key off
	// Pkg.Path().
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression types, object uses
	// and selections for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to Run.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position, a message, and the analyzer
// that reported it.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is filled by Run from the reporting pass.
	Analyzer string
}

// Run checks one type-checked package with every analyzer and returns
// the diagnostics that survive //gsqlvet:allow suppression. Both the
// repository self-check and the fixture harness go through it, so a
// finding means the same thing in each. An analyzer's error (an
// internal failure, not a finding) aborts the run.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.Path(), a.Name, err)
		}
	}
	return filter(fset, files, diags), nil
}

// allowDirective is the comment prefix of a suppression annotation.
const allowDirective = "//gsqlvet:allow"

// allowSite records one parsed //gsqlvet:allow annotation.
type allowSite struct {
	analyzer string
	line     int // line the comment sits on
	pos      token.Pos
}

// filter applies //gsqlvet:allow suppression to diags and returns the
// surviving diagnostics. Malformed annotations (missing analyzer name
// or missing reason) are appended as fresh diagnostics attributed to
// gsqlvet itself, so a bare switch-off is itself a finding.
func filter(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	var sites []allowSite
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowDirective)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					out = append(out, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed gsqlvet:allow: missing analyzer name (want //gsqlvet:allow <analyzer> <reason>)",
						Analyzer: "gsqlvet",
					})
					continue
				}
				site := allowSite{analyzer: fields[0], line: pos.Line, pos: c.Pos()}
				if len(fields) < 2 {
					out = append(out, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf("gsqlvet:allow %s has no justification (want //gsqlvet:allow %s <reason>)", site.analyzer, site.analyzer),
						Analyzer: "gsqlvet",
					})
					// A reasonless allow still suppresses nothing.
					continue
				}
				sites = append(sites, site)
			}
		}
	}
	for _, d := range diags {
		if !suppressed(fset, sites, d) {
			out = append(out, d)
		}
	}
	return out
}

// suppressed reports whether an allow annotation covers the diagnostic:
// same analyzer, annotation on the diagnostic's line (trailing comment)
// or on the line directly above it.
func suppressed(fset *token.FileSet, sites []allowSite, d Diagnostic) bool {
	p := fset.Position(d.Pos)
	for _, s := range sites {
		if s.analyzer != d.Analyzer {
			continue
		}
		sp := fset.Position(s.pos)
		if sp.Filename != p.Filename {
			continue
		}
		if s.line == p.Line || s.line == p.Line-1 {
			return true
		}
	}
	return false
}
