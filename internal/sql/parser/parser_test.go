package parser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graphsql/internal/sql/ast"
)

func parseSelect(t *testing.T, src string) *ast.SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		t.Fatalf("got %T, want *SelectStmt", stmt)
	}
	return sel
}

func core(t *testing.T, sel *ast.SelectStmt) *ast.SelectCore {
	t.Helper()
	c, ok := sel.Body.(*ast.SelectCore)
	if !ok {
		t.Fatalf("body is %T, want *SelectCore", sel.Body)
	}
	return c
}

func TestParseSimpleSelect(t *testing.T) {
	c := core(t, parseSelect(t, "SELECT a, b AS bb, t.* FROM t WHERE a > 1"))
	if len(c.Items) != 3 {
		t.Fatalf("items = %d", len(c.Items))
	}
	if c.Items[1].Aliases[0] != "bb" {
		t.Fatalf("alias = %v", c.Items[1].Aliases)
	}
	if !c.Items[2].Star || c.Items[2].StarTable != "t" {
		t.Fatal("t.* not recognized")
	}
	if c.Where == nil {
		t.Fatal("missing WHERE")
	}
}

func TestParseReaches(t *testing.T) {
	c := core(t, parseSelect(t,
		`SELECT 1 WHERE a REACHES b OVER edges e EDGE (src, dst)`))
	re, ok := c.Where.(*ast.ReachesExpr)
	if !ok {
		t.Fatalf("where is %T", c.Where)
	}
	if re.EdgeAlias != "e" || re.Src != "src" || re.Dst != "dst" {
		t.Fatalf("reaches = %+v", re)
	}
	if _, ok := re.Edge.(*ast.TableRef); !ok {
		t.Fatalf("edge is %T", re.Edge)
	}
}

func TestParseReachesWithoutAlias(t *testing.T) {
	c := core(t, parseSelect(t,
		`SELECT 1 WHERE x REACHES y OVER e EDGE (s, d) AND z = 1`))
	bin, ok := c.Where.(*ast.BinaryExpr)
	if !ok || bin.Op != "AND" {
		t.Fatalf("where is %T", c.Where)
	}
	if _, ok := bin.L.(*ast.ReachesExpr); !ok {
		t.Fatalf("left conjunct is %T", bin.L)
	}
}

func TestParseReachesOverSubquery(t *testing.T) {
	c := core(t, parseSelect(t,
		`SELECT 1 WHERE a REACHES b OVER (SELECT * FROM e WHERE w > 0) f EDGE (s, d)`))
	re := c.Where.(*ast.ReachesExpr)
	if _, ok := re.Edge.(*ast.SubqueryRef); !ok {
		t.Fatalf("edge is %T, want subquery", re.Edge)
	}
	if re.EdgeAlias != "f" {
		t.Fatalf("alias = %q", re.EdgeAlias)
	}
}

func TestParseCheapestSum(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT CHEAPEST SUM(e: w * 2) AS (cost, path)
		WHERE a REACHES b OVER t e EDGE (s, d)`))
	cs, ok := c.Items[0].Expr.(*ast.CheapestSum)
	if !ok {
		t.Fatalf("item is %T", c.Items[0].Expr)
	}
	if cs.Binding != "e" {
		t.Fatalf("binding = %q", cs.Binding)
	}
	if len(c.Items[0].Aliases) != 2 || c.Items[0].Aliases[1] != "path" {
		t.Fatalf("aliases = %v", c.Items[0].Aliases)
	}
}

func TestParseCheapestSumNoBinding(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT CHEAPEST SUM(1) WHERE a REACHES b OVER t EDGE (s, d)`))
	cs := c.Items[0].Expr.(*ast.CheapestSum)
	if cs.Binding != "" {
		t.Fatalf("binding = %q, want empty", cs.Binding)
	}
	if _, ok := cs.Weight.(*ast.NumberLit); !ok {
		t.Fatalf("weight is %T", cs.Weight)
	}
}

func TestParseCheapestRequiresSum(t *testing.T) {
	_, err := Parse(`SELECT CHEAPEST MAX(1) WHERE a REACHES b OVER t EDGE (s, d)`)
	if err == nil || !strings.Contains(err.Error(), "SUM") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseUnnest(t *testing.T) {
	c := core(t, parseSelect(t,
		`SELECT * FROM (SELECT 1) T, UNNEST(T.path) WITH ORDINALITY AS r`))
	if len(c.From) != 2 {
		t.Fatalf("from items = %d", len(c.From))
	}
	u, ok := c.From[1].(*ast.UnnestRef)
	if !ok {
		t.Fatalf("second item is %T", c.From[1])
	}
	if !u.Ordinality || u.Alias != "r" || u.Outer {
		t.Fatalf("unnest = %+v", u)
	}
}

func TestParseLeftJoinUnnestIsOuter(t *testing.T) {
	c := core(t, parseSelect(t,
		`SELECT * FROM t LEFT JOIN UNNEST(t.p) AS r ON TRUE`))
	j, ok := c.From[0].(*ast.JoinExpr)
	if !ok {
		t.Fatalf("from is %T", c.From[0])
	}
	u, ok := j.Right.(*ast.UnnestRef)
	if !ok || !u.Outer {
		t.Fatalf("right = %#v", j.Right)
	}
}

func TestParseJoins(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT * FROM a JOIN b ON a.x = b.y
		LEFT OUTER JOIN c ON b.z = c.z CROSS JOIN d`))
	j3, ok := c.From[0].(*ast.JoinExpr)
	if !ok || j3.Type != ast.JoinCross {
		t.Fatalf("outermost join = %+v", c.From[0])
	}
	j2 := j3.Left.(*ast.JoinExpr)
	if j2.Type != ast.JoinLeft {
		t.Fatalf("middle join type = %v", j2.Type)
	}
	j1 := j2.Left.(*ast.JoinExpr)
	if j1.Type != ast.JoinInner || j1.On == nil {
		t.Fatalf("inner join = %+v", j1)
	}
}

func TestParseWithCTE(t *testing.T) {
	sel := parseSelect(t, `WITH f AS (SELECT * FROM t), g (a, b) AS (SELECT 1, 2)
		SELECT * FROM f, g`)
	if len(sel.With) != 2 {
		t.Fatalf("CTEs = %d", len(sel.With))
	}
	if sel.With[1].Columns[1] != "b" {
		t.Fatalf("cte columns = %v", sel.With[1].Columns)
	}
}

func TestParseSetOps(t *testing.T) {
	sel := parseSelect(t, `SELECT 1 UNION ALL SELECT 2 EXCEPT SELECT 3`)
	// Left-associative: (1 UNION ALL 2) EXCEPT 3.
	outer, ok := sel.Body.(*ast.SetOp)
	if !ok || outer.Op != "EXCEPT" || outer.All {
		t.Fatalf("outer = %+v", sel.Body)
	}
	inner := outer.Left.(*ast.SetOp)
	if inner.Op != "UNION" || !inner.All {
		t.Fatalf("inner = %+v", inner)
	}
}

func TestParseOrderLimit(t *testing.T) {
	sel := parseSelect(t, `SELECT a FROM t ORDER BY a DESC NULLS FIRST, b ASC LIMIT 10 OFFSET 5`)
	if len(sel.OrderBy) != 2 {
		t.Fatalf("order keys = %d", len(sel.OrderBy))
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[0].NullsFirst != 1 {
		t.Fatalf("first key = %+v", sel.OrderBy[0])
	}
	if sel.OrderBy[1].Desc || sel.OrderBy[1].NullsFirst != -1 {
		t.Fatalf("second key = %+v", sel.OrderBy[1])
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Fatal("limit/offset missing")
	}
}

func TestParseExpressions(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT
		1 + 2 * 3,
		-x,
		a || b || c,
		x BETWEEN 1 AND 2,
		y NOT IN (1, 2, 3),
		z IS NOT NULL,
		name LIKE 'a%',
		CASE WHEN a THEN 1 ELSE 2 END,
		CASE x WHEN 1 THEN 'one' END,
		CAST(w AS INT),
		COALESCE(a, b, 0),
		COUNT(*),
		COUNT(DISTINCT a)`))
	// Precedence: 1 + (2 * 3).
	add := c.Items[0].Expr.(*ast.BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	if mul := add.R.(*ast.BinaryExpr); mul.Op != "*" {
		t.Fatalf("right op = %s", mul.Op)
	}
	if in := c.Items[4].Expr.(*ast.InExpr); !in.Not || len(in.List) != 3 {
		t.Fatalf("NOT IN = %+v", in)
	}
	if isn := c.Items[5].Expr.(*ast.IsNullExpr); !isn.Not {
		t.Fatal("IS NOT NULL lost its NOT")
	}
	if fc := c.Items[11].Expr.(*ast.FuncCall); !fc.Star {
		t.Fatal("COUNT(*) star lost")
	}
	if fc := c.Items[12].Expr.(*ast.FuncCall); !fc.Distinct {
		t.Fatal("COUNT(DISTINCT) lost")
	}
}

func TestParsePrecedenceAndOverOr(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT 1 WHERE a OR b AND c`))
	or := c.Where.(*ast.BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %s, want OR", or.Op)
	}
	if and := or.R.(*ast.BinaryExpr); and.Op != "AND" {
		t.Fatalf("right = %s, want AND", and.Op)
	}
}

func TestParseConcatBindsTighterThanComparison(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT 1 WHERE a || b = c`))
	cmp := c.Where.(*ast.BinaryExpr)
	if cmp.Op != "=" {
		t.Fatalf("top = %s", cmp.Op)
	}
	if cat := cmp.L.(*ast.BinaryExpr); cat.Op != "||" {
		t.Fatalf("left = %s", cat.Op)
	}
}

func TestParseCreateInsertDropDelete(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR(20) NOT NULL, d DOUBLE PRECISION)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*ast.CreateTableStmt)
	if len(ct.Columns) != 3 || ct.Columns[2].TypeName != "DOUBLE" {
		t.Fatalf("create = %+v", ct)
	}

	stmt, err = Parse(`INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*ast.InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert = %+v", ins)
	}

	stmt, err = Parse(`INSERT INTO t SELECT * FROM u`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*ast.InsertStmt).Select == nil {
		t.Fatal("insert-select lost its query")
	}

	if _, err := Parse(`DROP TABLE t`); err != nil {
		t.Fatal(err)
	}
	stmt, err = Parse(`DELETE FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*ast.DeleteStmt).Where == nil {
		t.Fatal("delete lost its predicate")
	}
}

func TestParseParams(t *testing.T) {
	_, n, err := ParseWithParams(`SELECT ? WHERE ? REACHES ? OVER t EDGE (s, d)`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("params = %d, want 3", n)
	}
}

func TestScriptParsesEveryStatement(t *testing.T) {
	s := NewScript(`CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT * FROM t;`)
	var got []string
	for {
		stmt, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if stmt == nil {
			break
		}
		got = append(got, fmt.Sprintf("%T", stmt))
	}
	want := []string{"*ast.CreateTableStmt", "*ast.InsertStmt", "*ast.SelectStmt"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("statements = %v, want %v", got, want)
	}
	if stmt, err := s.Next(); stmt != nil || err != nil {
		t.Fatalf("Next after the end = %v, %v", stmt, err)
	}
}

// TestScriptText holds the statement boundaries to the lexer's view of
// the script: semicolons inside string literals (” escapes included)
// and quoted identifiers ("" escapes included), -- line comments and
// /* */ block comments never split, comment apostrophes never open a
// literal, and empty or comment-only statements are skipped. An
// unterminated comment is a lexer error at its position in the whole
// script.
func TestScriptText(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr string
	}{
		{in: "SELECT 1; SELECT 2;", want: []string{"SELECT 1", "SELECT 2"}},
		{in: "SELECT 'a;b'; SELECT 2", want: []string{"SELECT 'a;b'", "SELECT 2"}},
		{in: "SELECT 'it''s; fine'", want: []string{"SELECT 'it''s; fine'"}},
		{in: "-- can't touch this\nSELECT 1;\nSELECT 2;", want: []string{"-- can't touch this\nSELECT 1", "SELECT 2"}},
		{in: "/* no; split 'here */ SELECT 1; SELECT 2", want: []string{"/* no; split 'here */ SELECT 1", "SELECT 2"}},
		{in: "SELECT 1 -- trailing; comment\n; SELECT 2", want: []string{"SELECT 1 -- trailing; comment", "SELECT 2"}},
		{in: ";;  ;"},
		{in: "SELECT 1;\n-- done\n", want: []string{"SELECT 1"}},
		{in: "/* only a comment */; SELECT 2", want: []string{"SELECT 2"}},
		{in: "SELECT 1;\n/* unterminated; never splits", want: []string{"SELECT 1"},
			wantErr: "syntax error at line 2 col 30: unterminated block comment"},
		{in: `SELECT "a;b" FROM t; SELECT 2`, want: []string{`SELECT "a;b" FROM t`, "SELECT 2"}},
		{in: `SELECT "a""x;y" FROM t; SELECT 2`, want: []string{`SELECT "a""x;y" FROM t`, "SELECT 2"}},
	}
	for _, c := range cases {
		s := NewScript(c.in)
		var got []string
		var err error
		for {
			var stmt ast.Statement
			if stmt, err = s.Next(); err != nil || stmt == nil {
				break
			}
			got = append(got, s.Text())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("NewScript(%q) texts = %q, want %q", c.in, got, c.want)
		}
		if gotErr := fmt.Sprint(err); (err != nil || c.wantErr != "") && gotErr != c.wantErr {
			t.Errorf("NewScript(%q) error = %v, want %q", c.in, err, c.wantErr)
		}
	}
}

// TestScriptErrorsAreScriptGlobal checks that a statement's parse and
// lex errors carry their position in the whole script and that the
// statements before them were returned first.
func TestScriptErrorsAreScriptGlobal(t *testing.T) {
	cases := []struct{ in, wantErr string }{
		{"SELECT 1;\nSELECT 2;\n  SELECT a FROM;\nSELECT 4;",
			"parse error at line 3 col 16: expected table name, found ;"},
		{"SELECT 1;\nSELECT 2;\nSELECT 3 4;\nSELECT 4;",
			"parse error at line 3 col 10: unexpected 4 after statement"},
		{"SELECT 1;\nSELECT 2;\nSELECT @;\nSELECT 4;",
			"syntax error at line 3 col 8: unexpected character \"@\""},
	}
	for _, c := range cases {
		s := NewScript(c.in)
		for i := 0; i < 2; i++ {
			if stmt, err := s.Next(); stmt == nil || err != nil {
				t.Fatalf("%q: statement %d = %v, %v", c.in, i+1, stmt, err)
			}
		}
		if _, err := s.Next(); fmt.Sprint(err) != c.wantErr {
			t.Errorf("%q: error = %v, want %q", c.in, err, c.wantErr)
		}
	}
}

// TestSingleStatementMessages pins the messages of the two
// single-statement entry points for inputs that are not exactly one
// statement.
func TestSingleStatementMessages(t *testing.T) {
	cases := []struct {
		in                string
		parse, withParams string
	}{
		{"", "expected exactly one statement, got 0",
			"parse error at line 1 col 1: expected a statement, found end of input"},
		{";SELECT 1", "",
			"parse error at line 1 col 1: expected a statement, found ;"},
		{"SELECT 1; SELECT 2", "expected exactly one statement, got 2",
			"parse error at line 1 col 11: unexpected SELECT after statement"},
		{"SELECT 1;;", "", ""},
		{"SELECT 1; SELECT 'x", "syntax error at line 1 col 20: unterminated string literal",
			"syntax error at line 1 col 20: unterminated string literal"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if got := errText(err); got != c.parse {
			t.Errorf("Parse(%q) error = %q, want %q", c.in, got, c.parse)
		}
		_, _, err = ParseWithParams(c.in)
		if got := errText(err); got != c.withParams {
			t.Errorf("ParseWithParams(%q) error = %q, want %q", c.in, got, c.withParams)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT a FROM t WHERE",
		"SELECT a b c FROM t",
		"CREATE TABLE",
		"INSERT INTO t",
		"SELECT CASE END",
		"SELECT CAST(a INT)",
		"SELECT 1 WHERE a REACHES b OVER t EDGE (s)",
		"SELECT 1 WHERE a REACHES b OVER t (s, d)",
		"SELECT a.b.c.d FROM t",
		"UPDATE t SET x = 1",
		"SELECT 1 ORDER BY a NULLS",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseDateLiteral(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT DATE '2011-01-01'`))
	cast, ok := c.Items[0].Expr.(*ast.CastExpr)
	if !ok || cast.TypeName != "DATE" {
		t.Fatalf("item = %#v", c.Items[0].Expr)
	}
}

func TestParseFromLessSelect(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT 1 + 1`))
	if len(c.From) != 0 {
		t.Fatalf("from = %v", c.From)
	}
}

func TestParseKeywordAfterDot(t *testing.T) {
	c := core(t, parseSelect(t, `SELECT r.ordinality FROM r`))
	id := c.Items[0].Expr.(*ast.Ident)
	if len(id.Parts) != 2 || !strings.EqualFold(id.Parts[1], "ordinality") {
		t.Fatalf("ident = %v", id.Parts)
	}
}
