// Package ast defines the abstract syntax tree of the SQL dialect,
// including the nodes the paper introduces: the reachability predicate
// (REACHES ... OVER ... EDGE), the CHEAPEST SUM summary function with
// multi-alias output, and UNNEST table references (§2).
package ast

import "strings"

// Statement is any top-level SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression.
type Expr interface{ expr() }

// TableExpr is any FROM-clause item.
type TableExpr interface{ tableExpr() }

// ---------------------------------------------------------------------------
// Statements

// SelectStmt is a full query: optional WITH prefix, a core (or set-op
// tree), and the trailing ORDER BY / LIMIT clauses.
type SelectStmt struct {
	With    []CTE
	Body    QueryBody
	OrderBy []OrderItem
	Limit   Expr // nil when absent
	Offset  Expr // nil when absent
}

// CTE is one WITH list entry: name AS (select).
type CTE struct {
	Name    string
	Columns []string // optional column aliases
	Select  *SelectStmt
}

// QueryBody is either a SelectCore or a set operation over two bodies.
type QueryBody interface{ queryBody() }

// SelectCore is one SELECT ... FROM ... WHERE ... GROUP BY ... HAVING
// block.
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     []TableExpr // empty FROM allowed (paper example A.1)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
}

func (*SelectCore) queryBody() {}

// SetOp is UNION / UNION ALL / EXCEPT / INTERSECT.
type SetOp struct {
	Op    string // "UNION", "EXCEPT", "INTERSECT"
	All   bool
	Left  QueryBody
	Right QueryBody
}

func (*SetOp) queryBody() {}

// SelectItem is one projection entry. CHEAPEST SUM items may carry two
// aliases via the AS (cost, path) form (§2).
type SelectItem struct {
	// Star is SELECT * or qualifier.*.
	Star      bool
	StarTable string
	Expr      Expr
	// Aliases holds zero, one, or (for CHEAPEST SUM) two output names.
	Aliases []string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
	// NullsFirst: -1 default, 0 NULLS LAST, 1 NULLS FIRST.
	NullsFirst int
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef is one column definition.
type ColumnDef struct {
	Name     string
	TypeName string
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...),... | SELECT.
//
// Rows lists the VALUES rows in order. A row made only of literals
// (see Lit) is nil in Rows, and its cells are Cells[Ends[i-1]:Ends[i]]
// (Ends[-1] being 0), so a bulk load builds no Expr per value. Any
// other row keeps its expressions and an empty range of cells.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Cells   []Lit
	Ends    []int
	Select  *SelectStmt // INSERT ... SELECT
}

// RowCells returns the cells of VALUES row i; it is empty unless the
// row is made only of literals.
func (s *InsertStmt) RowCells(i int) []Lit {
	lo := 0
	if i > 0 {
		lo = s.Ends[i-1]
	}
	return s.Cells[lo:s.Ends[i]]
}

// LitKind tells what a Lit holds.
type LitKind uint8

// Literal kinds. LitInt and LitFloat are the parser's reading of a
// number's text (LitFloat when it has a '.' or an exponent), the same
// reading NumberLit.IsFloat records.
const (
	LitNull LitKind = iota
	LitInt
	LitFloat
	LitString
	LitTrue
	LitFalse
	LitDate  // DATE 'text'
	LitParam // ?
)

// Lit is one cell of a VALUES row made only of literals: a number with
// an optional sign, a string, TRUE, FALSE, NULL, DATE 'text' or ?.
type Lit struct {
	Kind LitKind
	// Neg marks a number written with a leading '-'; it is negated
	// after it is read, as the unary minus of an expression would be.
	Neg bool
	// Param is the 0-based index of a ?.
	Param int32
	// Text is a number's digits, a string's value or a date's text.
	Text string
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct{ Name string }

// SetStmt is SET name = value | SET name = DEFAULT. Settings are
// session-scoped when executed through a session (the server, or the
// facade's Session API) and engine-wide otherwise. The only setting
// today is `parallelism`.
type SetStmt struct {
	Name string
	// Value is the assigned expression; nil when Default is set.
	Value Expr
	// Default marks SET name = DEFAULT (reset to the inherited value).
	Default bool
}

// DeleteStmt is DELETE FROM name [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// ExplainStmt is EXPLAIN [ANALYZE] <select>. Plain EXPLAIN renders the
// bound plan tree without executing; EXPLAIN ANALYZE executes the
// select under a trace and annotates the tree with actual row counts,
// wall times, worker budgets and solver frontier sizes. Only SELECT
// (and WITH ... SELECT) statements can be explained.
type ExplainStmt struct {
	Analyze bool
	Stmt    *SelectStmt
}

func (*SelectStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*DropTableStmt) stmt()   {}
func (*DeleteStmt) stmt()      {}
func (*SetStmt) stmt()         {}
func (*ExplainStmt) stmt()     {}

// ---------------------------------------------------------------------------
// Table expressions

// JoinType enumerates join flavors.
type JoinType uint8

const (
	// JoinCross is a cross product (comma or CROSS JOIN).
	JoinCross JoinType = iota
	// JoinInner is INNER JOIN ... ON.
	JoinInner
	// JoinLeft is LEFT [OUTER] JOIN ... ON.
	JoinLeft
)

// String names the join type.
func (t JoinType) String() string {
	switch t {
	case JoinCross:
		return "CROSS"
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	}
	return "?"
}

// TableRef names a base table or CTE, with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// SubqueryRef is a derived table: (SELECT ...) AS alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

// JoinExpr combines two table expressions.
type JoinExpr struct {
	Type  JoinType
	Left  TableExpr
	Right TableExpr
	On    Expr // nil for cross joins
}

// UnnestRef expands a nested-table expression laterally (§2): range
// variables of earlier FROM items are visible inside Expr. Outer marks
// the left-outer form that preserves empty collections.
type UnnestRef struct {
	Expr       Expr
	Ordinality bool
	Outer      bool
	Alias      string
}

func (*TableRef) tableExpr()    {}
func (*SubqueryRef) tableExpr() {}
func (*JoinExpr) tableExpr()    {}
func (*UnnestRef) tableExpr()   {}

// ---------------------------------------------------------------------------
// Scalar expressions

// Ident is a possibly qualified column reference (a or a.b).
type Ident struct {
	Parts []string
	// Line/Col locate the reference for binder errors.
	Line, Col int
}

// String renders the dotted name.
func (id *Ident) String() string { return strings.Join(id.Parts, ".") }

// NumberLit is an integer or decimal literal.
type NumberLit struct {
	Text    string
	IsFloat bool
}

// StringLit is a string literal.
type StringLit struct{ Val string }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Val bool }

// NullLit is NULL.
type NullLit struct{}

// ParamExpr is the n-th positional host parameter (0-based).
type ParamExpr struct{ Index int }

// BinaryExpr applies an infix operator: arithmetic (+,-,*,/,%),
// comparison (=,<>,<,<=,>,>=), logical (AND, OR) or concatenation (||).
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies a prefix operator: -, +, NOT.
type UnaryExpr struct {
	Op string
	X  Expr
}

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is X [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// InSubquery is X [NOT] IN (SELECT ...). Only the uncorrelated form is
// supported, as a top-level WHERE conjunct (it plans as a semi/anti
// join).
type InSubquery struct {
	X         Expr
	Select    *SelectStmt
	Not       bool
	Line, Col int
}

// ExistsExpr is [NOT] EXISTS (SELECT ...), uncorrelated, top-level
// WHERE conjunct only.
type ExistsExpr struct {
	Select    *SelectStmt
	Not       bool
	Line, Col int
}

// BetweenExpr is X [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// LikeExpr is X [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct{ When, Then Expr }

// CastExpr is CAST(X AS type).
type CastExpr struct {
	X        Expr
	TypeName string
}

// FuncCall is a scalar or aggregate function call.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x) etc.
	Line     int
	Col      int
}

// ReachesExpr is the reachability predicate of §2:
//
//	X REACHES Y OVER edge [alias] EDGE (src, dst)
//
// It is only legal as a top-level conjunct of a WHERE clause.
type ReachesExpr struct {
	X, Y Expr
	// Edge is the edge table expression (named table, CTE or derived
	// table).
	Edge TableExpr
	// EdgeAlias is the tuple variable that CHEAPEST SUM uses to bind
	// to this predicate; may be empty.
	EdgeAlias string
	// Src and Dst name the source and destination attributes of the
	// edge table.
	Src, Dst  string
	Line, Col int
}

// CheapestSum is the summary function of §2:
//
//	CHEAPEST SUM([e:] weightExpr)
//
// Binding names the edge-table tuple variable; empty means "the only
// reachability predicate in the block".
type CheapestSum struct {
	Binding   string
	Weight    Expr
	Line, Col int
}

func (*Ident) expr()       {}
func (*NumberLit) expr()   {}
func (*StringLit) expr()   {}
func (*BoolLit) expr()     {}
func (*NullLit) expr()     {}
func (*ParamExpr) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*IsNullExpr) expr()  {}
func (*InExpr) expr()      {}
func (*InSubquery) expr()  {}
func (*ExistsExpr) expr()  {}
func (*BetweenExpr) expr() {}
func (*LikeExpr) expr()    {}
func (*CaseExpr) expr()    {}
func (*CastExpr) expr()    {}
func (*FuncCall) expr()    {}
func (*ReachesExpr) expr() {}
func (*CheapestSum) expr() {}
