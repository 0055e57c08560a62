package fault

import (
	"fmt"
	"sort"
	"strings"
)

//go:generate go run ./gen -out ../../docs/FAULTPOINTS.md

// PointInfo describes one registered injection point: the canonical
// registry behind docs/FAULTPOINTS.md (regenerated by go generate and
// held fresh by CI), the gsqlvet faultpoint analyzer (which flags any
// Inject call naming an unregistered point when internal/lint's
// TestRepoIsClean runs), and Parse's unknown-point rejection.
type PointInfo struct {
	// Name is the point's canonical spec name.
	Name string
	// Package is the import path of the code the point is planted in.
	Package string
	// Effect says where the point fires and what an armed rule does.
	Effect string
}

// Registry lists every injection point in the codebase. Adding a
// planted Inject call without registering its point here fails
// internal/lint's TestRepoIsClean (the faultpoint analyzer) and the
// fault package's own registry-completeness test; naming an
// unregistered point in a GSQLD_FAULTS spec fails at arm time in Parse.
var Registry = []PointInfo{
	{
		Name:    PointGraphBuildChunk,
		Package: "graphsql/internal/graph",
		Effect:  "fires in the CSR builder's chunk loops (degree count and scatter), on the build workers; an error aborts the graph build",
	},
	{
		Name:    PointGraphEncodeChunk,
		Package: "graphsql/internal/graph",
		Effect:  "fires once every few thousand keys of the sequential dictionary-encode pass, on the encoding goroutine; an error aborts the encode",
	},
	{
		Name:    PointSolverGroup,
		Package: "graphsql/internal/graph",
		Effect:  "fires at the start of every source-group traversal, on the solver pool workers; an error fails the batch, a panic exercises pool capture",
	},
	{
		Name:    PointSolverLevel,
		Package: "graphsql/internal/graph",
		Effect:  "fires at every level boundary of a BFS traversal (first dequeue of each level), on the traversing goroutine; an error aborts that traversal and fails the batch",
	},
	{
		Name:    PointExecOperator,
		Package: "graphsql/internal/exec",
		Effect:  "fires before every relational operator; an error unwinds the plan tree at the next operator boundary",
	},
	{
		Name:    PointExecBatch,
		Package: "graphsql/internal/exec",
		Effect:  "fires before every batch a pull-executor operator produces (Operator.Next); a latency rule slows the stream frame-by-frame, an error cuts the query mid-stream",
	},
	{
		Name:    PointCacheInsert,
		Package: "graphsql/internal/server",
		Effect:  "fires on result-cache admission; an error makes the insert silently fail (the result is served but not cached)",
	},
	{
		Name:    PointStreamEncode,
		Package: "graphsql/internal/wire",
		Effect:  "fires per row-batch frame of the NDJSON stream encoder, after the header frame is on the wire; an error cuts the stream with an error trailer",
	},
}

// Known reports whether name is a registered injection point.
func Known(name string) bool {
	for _, p := range Registry {
		if p.Name == name {
			return true
		}
	}
	return false
}

// PointNames returns the registered point names, sorted.
func PointNames() []string {
	names := make([]string, len(Registry))
	for i, p := range Registry {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// unknownPointError builds the arm-time error for a rule naming an
// unregistered point, listing the registry so a typo'd chaos spec is a
// one-glance fix instead of a silently inert schedule.
func unknownPointError(rule, point string) error {
	return fmt.Errorf("fault: rule %q: unknown point %q (registered points: %s)",
		rule, point, strings.Join(PointNames(), ", "))
}
