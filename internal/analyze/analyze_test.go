package analyze

import (
	"strings"
	"testing"

	"graphsql/internal/plan"
	"graphsql/internal/sql/ast"
	"graphsql/internal/sql/parser"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

func testCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	mustCreate := func(name string, sch storage.Schema) {
		if _, err := cat.CreateTable(name, sch); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("persons", storage.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	})
	mustCreate("friends", storage.Schema{
		{Name: "src", Kind: types.KindInt},
		{Name: "dst", Kind: types.KindInt},
		{Name: "w", Kind: types.KindFloat},
	})
	return cat
}

func bind(t *testing.T, cat *storage.Catalog, sql string, params ...types.Value) (plan.Node, error) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return BindSelect(cat, stmt.(*ast.SelectStmt), params)
}

func mustBind(t *testing.T, cat *storage.Catalog, sql string, params ...types.Value) plan.Node {
	t.Helper()
	n, err := bind(t, cat, sql, params...)
	if err != nil {
		t.Fatalf("bind %q: %v", sql, err)
	}
	return n
}

func bindErr(t *testing.T, cat *storage.Catalog, sql string, substr string) {
	t.Helper()
	_, err := bind(t, cat, sql)
	if err == nil {
		t.Fatalf("bind %q: expected error containing %q", sql, substr)
	}
	if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(substr)) {
		t.Fatalf("bind %q: error %q missing %q", sql, err, substr)
	}
}

func TestBindProducesGraphMatch(t *testing.T) {
	cat := testCatalog(t)
	n := mustBind(t, cat, `SELECT CHEAPEST SUM(1) AS c
		WHERE 1 REACHES 2 OVER friends EDGE (src, dst)`)
	// Walk the plan looking for the GraphMatch.
	var gm *plan.GraphMatch
	var walk func(plan.Node)
	walk = func(x plan.Node) {
		if g, ok := x.(*plan.GraphMatch); ok {
			gm = g
		}
		for i := 0; x.Child(i) != nil; i++ {
			walk(x.Child(i))
		}
	}
	walk(n)
	if gm == nil {
		t.Fatalf("no GraphMatch in plan:\n%s", plan.Explain(n))
	}
	if gm.SrcIdx != 0 || gm.DstIdx != 1 {
		t.Fatalf("edge columns = (%d,%d)", gm.SrcIdx, gm.DstIdx)
	}
	if len(gm.Specs) != 1 || gm.Specs[0].CostKind != types.KindInt || gm.Specs[0].WantPath {
		t.Fatalf("specs = %+v", gm.Specs)
	}
	// Output schema: one column named c.
	sch := n.Schema()
	if len(sch) != 1 || sch[0].Name != "c" {
		t.Fatalf("schema = %v", sch)
	}
}

func TestBindCheapestFloatWeightKind(t *testing.T) {
	cat := testCatalog(t)
	n := mustBind(t, cat, `SELECT CHEAPEST SUM(f: w)
		WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)`)
	if n.Schema()[0].Kind != types.KindFloat {
		t.Fatalf("cost kind = %v, want float (follows the weight expr)", n.Schema()[0].Kind)
	}
}

func TestBindPathColumnSchemaTracking(t *testing.T) {
	cat := testCatalog(t)
	// Unnest of a path produced by an inner derived table: the nested
	// schema must expose the edge table's columns.
	n := mustBind(t, cat, `
		SELECT r.src, r.dst, r.w
		FROM (
			SELECT CHEAPEST SUM(f: 1) AS (c, p)
			WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)
		) t, UNNEST(t.p) AS r`)
	sch := n.Schema()
	if len(sch) != 3 || sch[2].Kind != types.KindFloat {
		t.Fatalf("schema = %v", sch)
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bindErr(t, cat, `SELECT CHEAPEST SUM(1)`, "REACHES")
	bindErr(t, cat, `SELECT 1 WHERE 'x' REACHES 2 OVER friends EDGE (src, dst)`, "type")
	bindErr(t, cat, `SELECT 1 WHERE 1 REACHES 'x' OVER friends EDGE (src, dst)`, "type")
	bindErr(t, cat, `SELECT 1 WHERE 1 REACHES 2 OVER friends EDGE (src, w)`, "different types")
	bindErr(t, cat, `SELECT 1 WHERE 1 REACHES 2 OVER nope EDGE (src, dst)`, "does not exist")
	bindErr(t, cat, `SELECT 1 WHERE NOT (1 REACHES 2 OVER friends EDGE (src, dst))`, "top-level")
	bindErr(t, cat, `SELECT CHEAPEST SUM(q: 1) WHERE 1 REACHES 2 OVER friends f EDGE (src, dst)`, "unknown")
	bindErr(t, cat, `SELECT name, CHEAPEST SUM(1) AS (a, b, c)
		FROM persons WHERE 1 REACHES 2 OVER friends EDGE (src, dst)`, "two components")
	bindErr(t, cat, `SELECT id + 1 AS (a, b) FROM persons`, "bare CHEAPEST SUM")
	// Ambiguous unqualified CHEAPEST SUM with two predicates.
	bindErr(t, cat, `SELECT CHEAPEST SUM(1)
		WHERE 1 REACHES 2 OVER friends a EDGE (src, dst)
		  AND 2 REACHES 3 OVER friends b EDGE (src, dst)`, "must name")
	// Duplicate edge variable.
	bindErr(t, cat, `SELECT 1
		WHERE 1 REACHES 2 OVER friends e EDGE (src, dst)
		  AND 2 REACHES 3 OVER friends e EDGE (src, dst)`, "duplicate")
	// UNNEST of a non-path expression.
	bindErr(t, cat, `SELECT 1 FROM persons p, UNNEST(p.id) AS r`, "nested-table")
	// UNNEST with nothing before it.
	bindErr(t, cat, `SELECT 1 FROM UNNEST(x) AS r`, "follow")
}

func TestBindCheapestSumInsideExpression(t *testing.T) {
	cat := testCatalog(t)
	n := mustBind(t, cat, `SELECT CHEAPEST SUM(1) * 10 + 1 AS scaled
		WHERE 1 REACHES 2 OVER friends EDGE (src, dst)`)
	if n.Schema()[0].Name != "scaled" || n.Schema()[0].Kind != types.KindInt {
		t.Fatalf("schema = %v", n.Schema())
	}
}

func TestBindReachesOverCTEKeepsEdgeScopeSeparate(t *testing.T) {
	cat := testCatalog(t)
	// The weight expression binds over the CTE's schema, not over the
	// outer FROM scope.
	mustBind(t, cat, `
		WITH f2 AS (SELECT src, dst, w * 2 AS w2 FROM friends)
		SELECT name, CHEAPEST SUM(e: w2)
		FROM persons
		WHERE id REACHES 99 OVER f2 e EDGE (src, dst)`)
	// And referencing an outer column inside the weight fails.
	bindErr(t, cat, `
		SELECT name, CHEAPEST SUM(e: id)
		FROM persons
		WHERE id REACHES 99 OVER friends e EDGE (src, dst)`, "not found")
}

func TestBindParamsTypedFromArgs(t *testing.T) {
	cat := testCatalog(t)
	// Int params satisfy the int key kind.
	mustBind(t, cat, `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)`,
		types.NewInt(1), types.NewInt(2))
	// A string param fails the §2 type check.
	if _, err := bind(t, cat,
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)`,
		types.NewString("a"), types.NewInt(2)); err == nil {
		t.Fatal("string parameter must fail the key type check")
	}
}

func TestBindStarExcludesGeneratedColumns(t *testing.T) {
	cat := testCatalog(t)
	n := mustBind(t, cat, `SELECT p.*, CHEAPEST SUM(1) AS c
		FROM persons p
		WHERE p.id REACHES 2 OVER friends EDGE (src, dst)`)
	sch := n.Schema()
	if len(sch) != 3 {
		t.Fatalf("schema = %v (star must not expand cost/path columns)", sch)
	}
}

func TestBindScalarRejectsColumns(t *testing.T) {
	cat := testCatalog(t)
	b := NewBinder(cat, nil)
	stmt, _ := parser.Parse(`SELECT 1`)
	_ = stmt
	e, err := parser.Parse(`SELECT id`) // reuse the parser for an expr
	if err != nil {
		t.Fatal(err)
	}
	item := e.(*ast.SelectStmt).Body.(*ast.SelectCore).Items[0].Expr
	if _, err := b.BindScalar(item); err == nil {
		t.Fatal("column reference must fail in scalar context")
	}
}

func TestTypeNameKind(t *testing.T) {
	cases := map[string]types.Kind{
		"INT": types.KindInt, "integer": types.KindInt, "BIGINT": types.KindInt,
		"DOUBLE": types.KindFloat, "real": types.KindFloat,
		"VARCHAR": types.KindString, "text": types.KindString,
		"BOOLEAN": types.KindBool, "DATE": types.KindDate,
	}
	for name, want := range cases {
		got, err := TypeNameKind(name)
		if err != nil || got != want {
			t.Errorf("TypeNameKind(%q) = (%v, %v), want %v", name, got, err, want)
		}
	}
	if _, err := TypeNameKind("BLOB"); err == nil {
		t.Fatal("unknown type must error")
	}
}

func TestRenderCanonicalization(t *testing.T) {
	// GROUP BY matching is case-insensitive through render().
	parse := func(s string) ast.Expr {
		stmt, err := parser.Parse("SELECT " + s)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*ast.SelectStmt).Body.(*ast.SelectCore).Items[0].Expr
	}
	if render(parse("Foo.Bar")) != render(parse("foo.bar")) {
		t.Fatal("identifier rendering must be case-insensitive")
	}
	if render(parse("SUM(x)")) == render(parse("SUM(y)")) {
		t.Fatal("different aggregates must render differently")
	}
	if render(parse("COUNT(*)")) != render(parse("count(*)")) {
		t.Fatal("count(*) rendering unstable")
	}
}
