// Package plan defines the bound logical plan. Besides the classic
// relational operators, it contains the two operators the paper adds to
// the algebra (§3.1): the graph select σ̂ and the graph join ⋈̂, both
// represented by the GraphMatch node — a graph join is simply a
// GraphMatch whose input is a cross product, exactly how the paper's
// rewriter unfolds it.
package plan

import (
	"fmt"
	"strings"

	"graphsql/internal/expr"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Node is a bound logical plan operator.
type Node interface {
	// Schema is the output schema of the operator.
	Schema() storage.Schema
	// Child returns the i-th input in plan order, or nil past the last
	// one. It allocates nothing, so the executor walks a plan once per
	// execution without garbage.
	Child(i int) Node
	// Describe renders one line for EXPLAIN output.
	Describe() string
}

// nth is Child for a node whose inputs are kids.
func nth(i int, kids ...Node) Node {
	if i < len(kids) {
		return kids[i]
	}
	return nil
}

// Scan reads a base table.
type Scan struct {
	Table *storage.Table
	// Alias is the binding qualifier used in the query.
	Alias string
	Sch   storage.Schema
}

// Schema implements Node.
func (s *Scan) Schema() storage.Schema { return s.Sch }

// Child implements Node.
func (s *Scan) Child(int) Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string { return fmt.Sprintf("Scan %s AS %s", s.Table.Name, s.Alias) }

// ChunkScan wraps an already-materialized chunk (CTE results).
type ChunkScan struct {
	Chunk *storage.Chunk
	Name  string
}

// Schema implements Node.
func (s *ChunkScan) Schema() storage.Schema { return s.Chunk.Schema }

// Child implements Node.
func (s *ChunkScan) Child(int) Node { return nil }

// Describe implements Node.
func (s *ChunkScan) Describe() string { return "ChunkScan " + s.Name }

// Filter keeps the rows satisfying Pred.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() storage.Schema { return f.Input.Schema() }

// Child implements Node.
func (f *Filter) Child(i int) Node { return nth(i, f.Input) }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter " + f.Pred.String() }

// Project computes one output column per expression.
type Project struct {
	Input Node
	Exprs []expr.Expr
	Sch   storage.Schema
}

// Schema implements Node.
func (p *Project) Schema() storage.Schema { return p.Sch }

// Child implements Node.
func (p *Project) Child(i int) Node { return nth(i, p.Input) }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinType enumerates physical join flavors.
type JoinType uint8

const (
	// JoinCross is a cross product.
	JoinCross JoinType = iota
	// JoinInner is an inner join with a condition.
	JoinInner
	// JoinLeft is a left outer join.
	JoinLeft
	// JoinSemi keeps left rows with at least one match (IN/EXISTS
	// subqueries); its output schema is the left schema only. A nil
	// condition means "right side non-empty".
	JoinSemi
	// JoinAnti keeps left rows with no match (NOT IN/NOT EXISTS).
	JoinAnti
)

// Join combines two inputs. On is evaluated over the concatenated
// schema (left columns first); it is nil for cross products.
type Join struct {
	Type        JoinType
	Left, Right Node
	On          expr.Expr
}

// Schema implements Node. Semi and anti joins only filter the left
// side, so they expose the left schema.
func (j *Join) Schema() storage.Schema {
	if j.Type == JoinSemi || j.Type == JoinAnti {
		return j.Left.Schema()
	}
	ls, rs := j.Left.Schema(), j.Right.Schema()
	out := make(storage.Schema, 0, len(ls)+len(rs))
	out = append(out, ls...)
	out = append(out, rs...)
	return out
}

// Child implements Node.
func (j *Join) Child(i int) Node { return nth(i, j.Left, j.Right) }

// Describe implements Node.
func (j *Join) Describe() string {
	on := ""
	if j.On != nil {
		on = " " + j.On.String()
	}
	switch j.Type {
	case JoinCross:
		return "CrossJoin"
	case JoinLeft:
		return "LeftJoin" + on
	case JoinSemi:
		return "SemiJoin" + on
	case JoinAnti:
		return "AntiJoin" + on
	default:
		return "Join" + on
	}
}

// CheapestSpec is one CHEAPEST SUM evaluation attached to a GraphMatch
// (§2). Weight is bound over the edge schema.
type CheapestSpec struct {
	Weight expr.Expr
	// CostKind is KindInt or KindFloat, derived from Weight.
	CostKind types.Kind
	CostName string
	// WantPath requests the nested-table path output.
	WantPath bool
	PathName string
}

// GraphMatch is the paper's graph select σ̂ (and, over a cross-product
// input, the graph join ⋈̂): it models a graph from the Edge subplan,
// keeps the input rows whose X value reaches their Y value, and
// appends one cost (and optional path) column per CheapestSpec.
type GraphMatch struct {
	Input Node
	Edge  Node
	// X and Y are bound over the input schema.
	X, Y expr.Expr
	// SrcIdx and DstIdx locate the source/destination attributes in
	// the edge schema.
	SrcIdx, DstIdx int
	Specs          []CheapestSpec
	// EdgeAlias is the tuple variable naming this predicate.
	EdgeAlias string
	Sch       storage.Schema
}

// Schema implements Node.
func (g *GraphMatch) Schema() storage.Schema { return g.Sch }

// Child implements Node.
func (g *GraphMatch) Child(i int) Node { return nth(i, g.Input, g.Edge) }

// Describe implements Node.
func (g *GraphMatch) Describe() string {
	es := g.Edge.Schema()
	d := fmt.Sprintf("GraphMatch %s REACHES %s OVER %s EDGE(%s,%s)",
		g.X, g.Y, g.EdgeAlias, es[g.SrcIdx].Name, es[g.DstIdx].Name)
	for _, sp := range g.Specs {
		d += fmt.Sprintf(" CHEAPEST SUM(%s)", sp.Weight)
	}
	return d
}

// AggOp enumerates aggregate functions.
type AggOp uint8

// Aggregate operators.
const (
	AggCountStar AggOp = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String names the aggregate.
func (op AggOp) String() string {
	return [...]string{"COUNT(*)", "COUNT", "SUM", "MIN", "MAX", "AVG"}[op]
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Op AggOp
	// Arg is nil for COUNT(*).
	Arg      expr.Expr
	Distinct bool
	// Kind is the result type.
	Kind types.Kind
	Name string
}

// Aggregate groups the input and evaluates aggregates. Its output
// schema is the group expressions followed by the aggregates.
type Aggregate struct {
	Input   Node
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Sch     storage.Schema
}

// Schema implements Node.
func (a *Aggregate) Schema() storage.Schema { return a.Sch }

// Child implements Node.
func (a *Aggregate) Child(i int) Node { return nth(i, a.Input) }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	return fmt.Sprintf("Aggregate groups=%d aggs=%d", len(a.GroupBy), len(a.Aggs))
}

// SortKey is one ORDER BY key bound over the input schema.
type SortKey struct {
	Expr expr.Expr
	Desc bool
	// NullsFirst: -1 default (last asc, first desc), 0 last, 1 first.
	NullsFirst int
}

// Sort orders the input.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() storage.Schema { return s.Input.Schema() }

// Child implements Node.
func (s *Sort) Child(i int) Node { return nth(i, s.Input) }

// Describe implements Node.
func (s *Sort) Describe() string { return fmt.Sprintf("Sort keys=%d", len(s.Keys)) }

// Limit truncates the input. Count or Skip may be nil.
type Limit struct {
	Input Node
	Count expr.Expr
	Skip  expr.Expr
}

// Schema implements Node.
func (l *Limit) Schema() storage.Schema { return l.Input.Schema() }

// Child implements Node.
func (l *Limit) Child(i int) Node { return nth(i, l.Input) }

// Describe implements Node.
func (l *Limit) Describe() string { return "Limit" }

// Distinct removes duplicate rows.
type Distinct struct{ Input Node }

// Schema implements Node.
func (d *Distinct) Schema() storage.Schema { return d.Input.Schema() }

// Child implements Node.
func (d *Distinct) Child(i int) Node { return nth(i, d.Input) }

// Describe implements Node.
func (d *Distinct) Describe() string { return "Distinct" }

// Unnest expands a nested-table column laterally (§2): for each input
// row, one output row per edge of the path, carrying the path's
// columns (and the optional 1-based ordinality). Outer preserves rows
// whose path is empty or NULL, null-extending the path columns.
type Unnest struct {
	Input Node
	// PathExpr is bound over the input schema and yields KindPath.
	PathExpr expr.Expr
	// PathSchema is the static schema of the nested table.
	PathSchema storage.Schema
	Ordinality bool
	Outer      bool
	Alias      string
	Sch        storage.Schema
}

// Schema implements Node.
func (u *Unnest) Schema() storage.Schema { return u.Sch }

// Child implements Node.
func (u *Unnest) Child(i int) Node { return nth(i, u.Input) }

// Describe implements Node.
func (u *Unnest) Describe() string {
	d := "Unnest " + u.PathExpr.String()
	if u.Ordinality {
		d += " WITH ORDINALITY"
	}
	if u.Outer {
		d += " (outer)"
	}
	return d
}

// SetOp combines two inputs with UNION / EXCEPT / INTERSECT semantics.
type SetOp struct {
	Op          string // "UNION", "EXCEPT", "INTERSECT"
	All         bool
	Left, Right Node
}

// Schema implements Node.
func (s *SetOp) Schema() storage.Schema { return s.Left.Schema() }

// Child implements Node.
func (s *SetOp) Child(i int) Node { return nth(i, s.Left, s.Right) }

// Describe implements Node.
func (s *SetOp) Describe() string {
	d := s.Op
	if s.All {
		d += " ALL"
	}
	return d
}

// Explain renders the plan tree as an indented listing.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for i := 0; n.Child(i) != nil; i++ {
			walk(n.Child(i), depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
