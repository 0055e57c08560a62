// Package analysistest runs one gsqlvet analyzer over a fixture
// package and compares its findings against `// want "regexp"`
// comments in the fixture source, the same contract as
// golang.org/x/tools' analysistest:
//
//   - a line carrying `// want "re"` must produce a finding on that
//     line whose message matches re (several quoted patterns expect
//     several findings on the line);
//   - any finding on a line without a matching want is unexpected.
//
// Fixtures live under internal/lint/testdata/src/<analyzer>/ and are
// type-checked under a caller-chosen synthetic import path, so a
// path-gated analyzer can be exercised both inside and outside its
// gate without the fixture living in a real engine package. Fixtures
// may import real module packages (trace, fault, exec); their export
// data comes from the shared loader sweep.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/loader"
)

var (
	envOnce sync.Once
	env     *loader.Env
	envErr  error
)

// SharedEnv returns a process-wide loader environment (one `go list`
// sweep per test binary).
func SharedEnv(t *testing.T) *loader.Env {
	t.Helper()
	envOnce.Do(func() {
		root, err := loader.ModuleRoot(".")
		if err != nil {
			envErr = err
			return
		}
		env, envErr = loader.NewEnv(root)
	})
	if envErr != nil {
		t.Fatalf("loader environment: %v", envErr)
	}
	return env
}

// Run checks the fixture package in dir under importPath with a, then
// matches findings against the fixture's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	e := SharedEnv(t)
	pkg, err := e.CheckDir(dir, importPath)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}

	diags, err := analysis.Run([]*analysis.Analyzer{a}, pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, delta, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				k := key{posn.Filename, posn.Line + delta}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", posn, p, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		k := key{posn.Filename, posn.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s: %s", posn, d.Analyzer, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no finding matched want %q", k.file, k.line, re)
		}
	}
}

// parseWant extracts the quoted patterns from a `// want "re" "re"`
// comment. The `// want-above` form expects the finding one line up —
// for diagnostics anchored on a comment line (a malformed
// gsqlvet:allow), where a trailing want cannot coexist with the
// comment it describes.
func parseWant(text string) (patterns []string, delta int, _ bool) {
	rest, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		rest, ok = strings.CutPrefix(text, "// want-above ")
		if !ok {
			return nil, 0, false
		}
		delta = -1
	}
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		// Patterns are Go string literals, so \" and \\ escape like in
		// source (matching x/tools analysistest).
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, 0, false
		}
		p, err := strconv.Unquote(quoted)
		if err != nil {
			return nil, 0, false
		}
		patterns = append(patterns, p)
		rest = rest[len(quoted):]
	}
	return patterns, delta, len(patterns) > 0
}
