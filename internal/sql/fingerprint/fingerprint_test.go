package fingerprint

import (
	"reflect"
	"testing"

	"graphsql/internal/sql/lexer"
	"graphsql/internal/types"
)

func ints(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

func TestNormalizeExtracts(t *testing.T) {
	cases := []struct {
		name string
		in   string
		sql  string
		lits []types.Value
	}{
		{
			"where eq int",
			"SELECT * FROM t WHERE id = 42",
			"SELECT * FROM t WHERE id = ?",
			ints(42),
		},
		{
			"all comparison operators",
			"SELECT * FROM t WHERE a = 1 AND b < 2 AND c > 3 AND d <= 4 AND e >= 5 AND f <> 6",
			"SELECT * FROM t WHERE a = ? AND b < ? AND c > ? AND d <= ? AND e >= ? AND f <> ?",
			ints(1, 2, 3, 4, 5, 6),
		},
		{
			"bang-equals lexes to <> but the span stays verbatim",
			"SELECT * FROM t WHERE a != 7",
			"SELECT * FROM t WHERE a != ?",
			ints(7),
		},
		{
			"float and string typing",
			"SELECT * FROM t WHERE a = 3.5 AND b = 'x''y' AND c = 1e3",
			"SELECT * FROM t WHERE a = ? AND b = ? AND c = ?",
			[]types.Value{types.NewFloat(3.5), types.NewString("x'y"), types.NewFloat(1000)},
		},
		{
			"negative literal folds the sign into the value",
			"SELECT * FROM t WHERE a = -5 AND b > -2.5",
			"SELECT * FROM t WHERE a = ? AND b > ?",
			[]types.Value{types.NewInt(-5), types.NewFloat(-2.5)},
		},
		{
			"IN list",
			"SELECT * FROM t WHERE a IN (1, 2, -3) AND b NOT IN ('x', 'y')",
			"SELECT * FROM t WHERE a IN (?, ?, ?) AND b NOT IN (?, ?)",
			[]types.Value{types.NewInt(1), types.NewInt(2), types.NewInt(-3), types.NewString("x"), types.NewString("y")},
		},
		{
			"BETWEEN bounds",
			"SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b = 3",
			"SELECT * FROM t WHERE a BETWEEN ? AND ? AND b = ?",
			ints(1, 10, 3),
		},
		{
			"BETWEEN with negative and non-literal lower bound",
			"SELECT * FROM t WHERE a BETWEEN x AND -5",
			"SELECT * FROM t WHERE a BETWEEN x AND ?",
			ints(-5),
		},
		{
			"HAVING and join ON zones",
			"SELECT a FROM t JOIN u ON t.id = u.id AND u.v > 9 GROUP BY a HAVING COUNT(a) > 10",
			"SELECT a FROM t JOIN u ON t.id = u.id AND u.v > ? GROUP BY a HAVING COUNT(a) > ?",
			ints(9, 10),
		},
		{
			"subquery gets its own zone, outer zone restored",
			"SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE c = 5) AND d = 6",
			"SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE c = ?) AND d = ?",
			ints(5, 6),
		},
		{
			"select-list literal untouched, where literal extracted",
			"SELECT 1 + 1, a FROM t WHERE a = 2",
			"SELECT 1 + 1, a FROM t WHERE a = ?",
			ints(2),
		},
		{
			"order-by ordinal and limit untouched",
			"SELECT a, b FROM t WHERE a = 1 ORDER BY 2 DESC LIMIT 10 OFFSET 5",
			"SELECT a, b FROM t WHERE a = ? ORDER BY 2 DESC LIMIT 10 OFFSET 5",
			ints(1),
		},
		{
			"existing params interleave with extracted literals",
			"SELECT * FROM t WHERE a = ? AND b = 2 AND c = ?",
			"SELECT * FROM t WHERE a = ? AND b = ? AND c = ?",
			ints(2),
		},
		{
			"parenthesized predicates inherit the zone",
			"SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3",
			"SELECT * FROM t WHERE (a = ? OR b = ?) AND c = ?",
			ints(1, 2, 3),
		},
		{
			"trailing semicolon ok",
			"SELECT * FROM t WHERE a = 4;",
			"SELECT * FROM t WHERE a = ?;",
			ints(4),
		},
		{
			"unary minus with space folds the whole span",
			"SELECT * FROM t WHERE a = - 5",
			"SELECT * FROM t WHERE a = ?",
			ints(-5),
		},
		{
			"CASE predicate literals inside WHERE",
			"SELECT * FROM t WHERE CASE WHEN a = 1 THEN b ELSE c END = 2",
			"SELECT * FROM t WHERE CASE WHEN a = ? THEN b ELSE c END = ?",
			ints(1, 2),
		},
		{
			"WITH statement normalizes inside the CTE and the body",
			"WITH x AS (SELECT a FROM t WHERE a > 1) SELECT * FROM x WHERE a < 9",
			"WITH x AS (SELECT a FROM t WHERE a > ?) SELECT * FROM x WHERE a < ?",
			ints(1, 9),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := Normalize(tc.in)
			if n.SQL != tc.sql {
				t.Fatalf("SQL:\n  got  %q\n  want %q", n.SQL, tc.sql)
			}
			if !reflect.DeepEqual(n.Literals, tc.lits) {
				t.Fatalf("literals:\n  got  %+v\n  want %+v", n.Literals, tc.lits)
			}
		})
	}
}

func TestNormalizeIdentity(t *testing.T) {
	// Statements where nothing may be extracted come back verbatim.
	cases := []string{
		"SELECT 1 + 1",
		"SELECT a FROM t",
		"SELECT a FROM t ORDER BY 1 LIMIT 3",
		"SELECT * FROM t WHERE d < DATE '2011-01-01'",        // DATE cast needs its constant
		"SELECT * FROM t WHERE s LIKE 'x%'",                  // LIKE patterns excluded
		"SELECT * FROM t WHERE f(5) = x",                     // function args excluded
		"SELECT * FROM t WHERE a = TRUE AND b IS NOT NULL",   // keyword literals
		"SELECT * FROM t WHERE a REACHES b OVER e AND c = 5", // graph clause ends the zone
		"SELECT * FROM t WHERE a = 99999999999999999999999",  // int overflow: leave inline
		"INSERT INTO t VALUES (1, 2)",                        // only SELECT/WITH normalize
		"DELETE FROM t WHERE a = 1",
		"SET parallelism = 4",
		"SELECT * FROM t WHERE a = 1; DELETE FROM t", // multi-statement: bail entirely
		"SELECT * FROM t WHERE a = 'unterminated",    // lexical error: bail
		"SELECT 5 = 5",                               // comparison in select list is outside the zone
	}
	for _, in := range cases {
		n := Normalize(in)
		if n.SQL != in || n.Changed() {
			t.Fatalf("want identity for %q, got %q (lits %+v)", in, n.SQL, n.Literals)
		}
	}
}

func TestMerge(t *testing.T) {
	n := Normalize("SELECT * FROM t WHERE a = ? AND b = 2 AND c = ?")
	if got := n.NumRawParams(); got != 2 {
		t.Fatalf("NumRawParams = %d, want 2", got)
	}
	merged, ok := n.MergeValues([]types.Value{types.NewInt(10), types.NewInt(30)})
	if !ok {
		t.Fatal("MergeValues refused matching args")
	}
	want := ints(10, 2, 30)
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("MergeValues = %+v, want %+v", merged, want)
	}
	// Wrong arity must refuse so error paths stay on the raw statement.
	if _, ok := n.MergeValues(ints(1)); ok {
		t.Fatal("MergeValues accepted too few args")
	}
	if _, ok := n.MergeValues(ints(1, 2, 3)); ok {
		t.Fatal("MergeValues accepted too many args")
	}
}

func TestNormalizeAllocsBounded(t *testing.T) {
	// Not zero (the rewritten SQL and value slices must allocate), but
	// normalization must stay O(1) small allocations per statement —
	// the scan itself is allocation-free.
	src := "SELECT a, b FROM t WHERE a = 42 AND b IN (1, 2, 3) AND c BETWEEN 4 AND 5"
	per := testing.AllocsPerRun(100, func() {
		n := Normalize(src)
		if !n.Changed() {
			t.Fatal("no extraction")
		}
	})
	if per > 12 {
		t.Fatalf("Normalize allocates %.1f per run, want <= 12", per)
	}
}

// FuzzNormalize checks the normalize → merge round trip on arbitrary
// input: no panic; an unchanged statement comes back verbatim; a
// changed one has one placeholder per FromLiteral entry, keeps the
// input's own placeholders as its raw parameters, merges exactly that
// many arguments and normalizes to itself, so one statement shape has
// one key; and Keyword is the lexer's first token whenever that token
// is a keyword, "" otherwise.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"SELECT * FROM t WHERE id = 42",
		"SELECT * FROM t WHERE a = ? AND b = 2 AND c = ?",
		"SELECT a FROM t WHERE a IN (1, -2, 'x') AND b BETWEEN 3 AND -4.5",
		"WITH c AS (SELECT * FROM t WHERE a > 1e3) SELECT * FROM c JOIN d ON c.a = 7",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) >= 2 ORDER BY 1 LIMIT 3",
		"SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d) AND x = 5",
		"/* tag */ select * from t where s = 'it''s'",
		"INSERT INTO t VALUES (?, 2)",
		"SELECT * FROM t WHERE a = 1; DELETE FROM t",
		"SELECT * FROM t WHERE a = 'unterminated",
		"-- only a comment",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		n := Normalize(in)
		want := ""
		if tok, err := lexer.New(in).Next(); err == nil && tok.Type == lexer.Keyword {
			want = tok.Text
		}
		if n.Keyword != want {
			t.Fatalf("Keyword = %q, want %q for %q", n.Keyword, want, in)
		}
		if n.Changed() == (n.SQL == in) {
			t.Fatalf("Changed() = %v but SQL %q vs input %q", n.Changed(), n.SQL, in)
		}
		if !n.Changed() {
			return
		}
		if got := countParams(t, n.SQL); got != len(n.FromLiteral) {
			t.Fatalf("%q has %d placeholders, FromLiteral %d", n.SQL, got, len(n.FromLiteral))
		}
		if got := countParams(t, in); got != n.NumRawParams() {
			t.Fatalf("%q has %d placeholders, NumRawParams %d", in, got, n.NumRawParams())
		}
		merged, ok := n.MergeValues(make([]types.Value, n.NumRawParams()))
		if !ok || len(merged) != len(n.FromLiteral) {
			t.Fatalf("MergeValues of %d args: ok %v, %d values, want %d", n.NumRawParams(), ok, len(merged), len(n.FromLiteral))
		}
		if again := Normalize(n.SQL); again.Changed() {
			t.Fatalf("normalizing %q again extracted %+v", n.SQL, again.Literals)
		}
	})
}

// countParams counts the ? placeholders the lexer finds in sql.
func countParams(t *testing.T, sql string) int {
	t.Helper()
	toks, err := lexer.Tokenize(sql)
	if err != nil {
		t.Fatalf("%q does not lex: %v", sql, err)
	}
	n := 0
	for _, tok := range toks {
		if tok.Type == lexer.Param {
			n++
		}
	}
	return n
}
