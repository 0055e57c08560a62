package graphsql

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"graphsql/internal/testutil"
)

// planText folds an EXPLAIN [ANALYZE] result (one "QUERY PLAN" string
// column, one row per line) back into a text block.
func planText(t *testing.T, res *Result) string {
	t.Helper()
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("explain result shape: %v", res.Columns)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		fmt.Fprintln(&b, row[0])
	}
	return b.String()
}

// requireAnalyzedRoot checks the EXPLAIN ANALYZE contract on the root
// line: the true result cardinality and a wall time.
func requireAnalyzedRoot(t *testing.T, label string, plan *Result, wantRows int, q string) {
	t.Helper()
	text := planText(t, plan)
	firstLine, _, _ := strings.Cut(text, "\n")
	if !strings.Contains(firstLine, fmt.Sprintf("rows=%d", wantRows)) {
		t.Fatalf("%s: annotated root does not report the true cardinality %d:\n%s\nquery: %s", label, wantRows, text, q)
	}
	if !strings.Contains(firstLine, "time=") {
		t.Fatalf("%s: no timing on the root line:\n%s", label, text)
	}
}

// TestExplainAnalyzeDifferential locks down the EXPLAIN ANALYZE
// contract at every differential parallelism setting: analyzing a
// query really executes it (the annotated root reports the true result
// cardinality) and perturbs nothing — the plain query renders
// byte-identically before and after, and identically across worker
// counts.
func TestExplainAnalyzeDifferential(t *testing.T) {
	forceParallelOperators(t)
	for _, p := range differentialSettings() {
		db := openCorpusDB(t, p)
		for qi, q := range testutil.Queries() {
			ref, err := db.Query(q)
			if err != nil {
				t.Fatalf("parallelism %d q%02d: %v\nquery: %s", p, qi, err, q)
			}
			before := ref.String()
			plan, err := db.Query("EXPLAIN ANALYZE " + q)
			if err != nil {
				t.Fatalf("parallelism %d q%02d: EXPLAIN ANALYZE: %v\nquery: %s", p, qi, err, q)
			}
			requireAnalyzedRoot(t, fmt.Sprintf("parallelism %d q%02d", p, qi), plan, ref.Len(), q)
			after, err := db.Query(q)
			if err != nil {
				t.Fatalf("parallelism %d q%02d: re-run: %v", p, qi, err)
			}
			if after.String() != before {
				t.Fatalf("parallelism %d q%02d: EXPLAIN ANALYZE perturbed the query\nquery: %s\n--- before\n%s--- after\n%s",
					p, qi, q, before, after.String())
			}
		}
	}
}

// TestExplainAnalyzeGraphIndexFrontiers is the acceptance scenario: an
// EXPLAIN ANALYZE over an indexed shortest-path query must show the
// GraphMatch operator with actual rows, wall time and worker budget,
// plus the per-level frontier sizes of the BFS underneath it.
func TestExplainAnalyzeGraphIndexFrontiers(t *testing.T) {
	db := openCorpusDB(t, 2)
	if err := db.BuildGraphIndex("knows", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT p1.id, p2.id, CHEAPEST SUM(1) AS hops FROM people p1, people p2
	      WHERE p1.id REACHES p2.id OVER knows EDGE (src, dst) AND p1.id < 5 AND p2.id > 390`
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Query("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	text := planText(t, plan)
	gm := regexp.MustCompile(`GraphMatch .*\(rows=\d+.*time=.*workers=\d+\)`)
	if !gm.MatchString(text) {
		t.Fatalf("no annotated GraphMatch operator:\n%s", text)
	}
	lvl := regexp.MustCompile(`level \d+: frontier=\d+`)
	if !lvl.MatchString(text) {
		t.Fatalf("no BFS frontier level lines:\n%s", text)
	}
	if ref.Len() == 0 {
		t.Fatal("corpus query returned no rows; frontier assertion is vacuous")
	}
}

// TestExplainAnalyzeBidirectionalLevels is README's EXPLAIN ANALYZE
// example: one pair over a graph index is searched from both ends, and
// the levels of the backward half say so. Without the index the same
// query searches forward only.
func TestExplainAnalyzeBidirectionalLevels(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE knows (src BIGINT, dst BIGINT)`)
	db.MustExec(`INSERT INTO knows VALUES (1,2),(1,3),(2,4),(3,4),(4,5)`)
	const q = `SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER knows k EDGE (src, dst)`
	levels := func() string {
		t.Helper()
		plan, err := db.Query("EXPLAIN ANALYZE " + q)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(planText(t, plan), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "level ") {
				out = append(out, strings.TrimSpace(line))
			}
		}
		return strings.Join(out, "; ")
	}
	if got, want := levels(), "level 0: frontier=1; level 1: frontier=2; level 2: frontier=1"; got != want {
		t.Fatalf("ad hoc graph levels: %s, want %s", got, want)
	}
	if err := db.BuildGraphIndex("knows", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	if got, want := levels(), "level 0: frontier=1; level 0 (backward): frontier=1; level 1 (backward): frontier=1"; got != want {
		t.Fatalf("graph index levels: %s, want %s", got, want)
	}
	if hops, err := db.QueryScalar(q); err != nil || hops != int64(3) {
		t.Fatalf("hops = %v, err %v; want 3", hops, err)
	}
}

// TestExplainAnalyzeSearches pins the searches= attribute of the
// GraphMatch line: how many destinations the solver searched from both
// ends and how many forward. Over the edges 1->{2,3}, {2,3}->4, 4->5 (5
// vertices) the search from 1 to 4 reaches 1, 2, 3 and 4, which
// projects 1 × 4 ≤ 5 for the one destination left, so 4 and 5 are
// both searched from both ends. The search to 2 meets it on 1's first
// edge and reaches 2 vertices; three left project 6 > 5, so 3, 4 and
// 5 share one forward traversal. Without the index everything
// searches forward.
func TestExplainAnalyzeSearches(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE knows (src BIGINT, dst BIGINT)`)
	db.MustExec(`INSERT INTO knows VALUES (1,2),(1,3),(2,4),(3,4),(4,5)`)
	db.MustExec(`CREATE TABLE two (id BIGINT)`)
	db.MustExec(`INSERT INTO two VALUES (4),(5)`)
	db.MustExec(`CREATE TABLE star (id BIGINT)`)
	db.MustExec(`INSERT INTO star VALUES (2),(3),(4),(5)`)
	attr := regexp.MustCompile(`GraphMatch .*, (searches=both:\d+,forward:\d+), workers=\d+\)`)
	searches := func(table string) string {
		t.Helper()
		plan, err := db.Query(`EXPLAIN ANALYZE SELECT d.id, CHEAPEST SUM(1) FROM ` + table + ` d
			WHERE 1 REACHES d.id OVER knows EDGE (src, dst)`)
		if err != nil {
			t.Fatal(err)
		}
		text := planText(t, plan)
		m := attr.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("no searches= on the GraphMatch line:\n%s", text)
		}
		return m[1]
	}
	cases := []struct{ table, adhoc, index string }{
		{"two", "searches=both:0,forward:2", "searches=both:2,forward:0"},
		{"star", "searches=both:0,forward:4", "searches=both:1,forward:3"},
	}
	for _, tc := range cases {
		if got := searches(tc.table); got != tc.adhoc {
			t.Errorf("%s over the ad hoc graph: %s, want %s", tc.table, got, tc.adhoc)
		}
	}
	if err := db.BuildGraphIndex("knows", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if got := searches(tc.table); got != tc.index {
			t.Errorf("%s over the graph index: %s, want %s", tc.table, got, tc.index)
		}
	}
}

// TestExplainAnalyzeDictForm pins the dict= attribute of a GraphMatch
// that builds its graph. BIGINT keys spanning at most a quarter of the
// key count take the dense form of the vertex dictionary, and VARCHAR
// keys the hash form. A graph index hit builds nothing and shows none;
// a rebuild shows the form of the snapshot it built.
func TestExplainAnalyzeDictForm(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE ik (src BIGINT, dst BIGINT)`)
	// 16 keys over the vertices 1..4: a span of 4 = 16/4.
	db.MustExec(`INSERT INTO ik VALUES (1,2),(2,3),(3,4),(4,1),(1,3),(2,4),(3,1),(4,2)`)
	db.MustExec(`CREATE TABLE sk (src VARCHAR, dst VARCHAR)`)
	db.MustExec(`INSERT INTO sk VALUES ('a','b'),('b','c'),('c','d'),('d','a'),('a','c'),('b','d'),('c','a'),('d','b')`)
	line := regexp.MustCompile(`GraphMatch .*`)
	graphMatch := func(q string) string {
		t.Helper()
		plan, err := db.Query("EXPLAIN ANALYZE " + q)
		if err != nil {
			t.Fatal(err)
		}
		text := planText(t, plan)
		m := line.FindString(text)
		if m == "" {
			t.Fatalf("no GraphMatch line:\n%s", text)
		}
		return m
	}
	const ints = `SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER ik EDGE (src, dst)`
	for _, tc := range []struct{ q, want string }{
		{ints, "graph_edges=8, dict=dense"},
		{`SELECT CHEAPEST SUM(1) WHERE 'a' REACHES 'c' OVER sk EDGE (src, dst)`, "graph_edges=8, dict=hash"},
	} {
		if got := graphMatch(tc.q); !strings.Contains(got, tc.want) {
			t.Errorf("%s: %s, want %s", tc.q, got, tc.want)
		}
	}
	if err := db.BuildGraphIndex("ik", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	if got := graphMatch(ints); !strings.Contains(got, "index=hit") || strings.Contains(got, "dict=") {
		t.Errorf("index hit: %s, want index=hit and no dict=", got)
	}
	// 65 appended edges pass the rebuild threshold, at least 64 edges.
	var rows []string
	for i := 0; i < 65; i++ {
		rows = append(rows, fmt.Sprintf("(%d,%d)", 1+i%4, 1+(i+1)%4))
	}
	db.MustExec(`INSERT INTO ik VALUES ` + strings.Join(rows, ","))
	if got := graphMatch(ints); !strings.Contains(got, "index=rebuild, dict=dense") {
		t.Errorf("index rebuild: %s, want index=rebuild, dict=dense", got)
	}
}

// TestExplainWithoutAnalyze: plain EXPLAIN renders the bound plan
// without executing, matching DB.Explain.
func TestExplainWithoutAnalyze(t *testing.T) {
	db := openCorpusDB(t, 1)
	q := `SELECT id FROM people WHERE score > 50 ORDER BY id LIMIT 3`
	want, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	got := planText(t, res)
	if strings.TrimRight(got, "\n") != strings.TrimRight(want, "\n") {
		t.Fatalf("EXPLAIN differs from DB.Explain\n--- EXPLAIN\n%s--- Explain()\n%s", got, want)
	}
	if strings.Contains(got, "rows=") {
		t.Fatalf("plain EXPLAIN carries actuals: %s", got)
	}
}

// TestExplainAnalyzeZeroRowOperators: an operator pulled to exhaustion
// reports rows= even when it never emitted a batch, so a zero-row join
// or filter reads rows=0 (and rows_in=) instead of losing its actuals.
func TestExplainAnalyzeZeroRowOperators(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES (1),(2),(3),(4),(5),(6),(7)`)
	analyze := func(q string) string {
		t.Helper()
		plan, err := db.Query("EXPLAIN ANALYZE " + q)
		if err != nil {
			t.Fatalf("%v\nquery: %s", err, q)
		}
		return planText(t, plan)
	}

	// Every operator of a zero-row filter (and the breakers above it)
	// is pulled to exhaustion, so every line carries rows=.
	for _, q := range []string{
		`SELECT a FROM t WHERE a > 100`,
		`SELECT a, COUNT(*) FROM t WHERE a > 100 GROUP BY a ORDER BY a`,
	} {
		text := analyze(q)
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			if !strings.Contains(line, "rows=") {
				t.Errorf("operator line without rows=: %q\n%s\nquery: %s", line, text, q)
			}
		}
		if !regexp.MustCompile(`Filter .*\(rows=0, rows_in=7, `).MatchString(text) {
			t.Errorf("zero-row filter does not report rows=0, rows_in=7:\n%s", text)
		}
	}

	// A join whose left side is empty: the join, the LIMIT 0 feeding it
	// and the projection above all ran to exhaustion and say so. (The
	// subtree under LIMIT 0 is never pulled and stays without actuals.)
	text := analyze(`WITH x AS (SELECT a FROM t)
		SELECT l.a FROM (SELECT a FROM x LIMIT 0) l JOIN x r ON l.a = r.a`)
	for _, want := range []string{
		`^Project l\.a \(rows=0, rows_in=0, `,
		`(?m)^\s+Join .*\(rows=0, rows_in=7, `,
		`(?m)^\s+Limit \(rows=0, `,
	} {
		if !regexp.MustCompile(want).MatchString(text) {
			t.Errorf("zero-row join plan does not match %s:\n%s", want, text)
		}
	}
}

// TestExplainAnalyzeShowsSkippedWindows: a 128-row range of a
// 65,536-row sorted table reads the two windows it straddles, and the
// scan line says so; a scan that skips nothing, and plain EXPLAIN,
// render as before.
func TestExplainAnalyzeShowsSkippedWindows(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE pairs (seq BIGINT, src BIGINT, dst BIGINT)`)
	for from := 0; from < 64*1024; from += 1024 {
		var b strings.Builder
		b.WriteString("INSERT INTO pairs VALUES ")
		for i := from; i < from+1024; i++ {
			if i > from {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d)", i, i%7, i%13)
		}
		db.MustExec(b.String())
	}
	const q = `SELECT p.src, p.dst FROM pairs p WHERE p.seq >= ? AND p.seq < ?`
	analyze := func(q string, args ...any) string {
		t.Helper()
		plan, err := db.Query("EXPLAIN ANALYZE "+q, args...)
		if err != nil {
			t.Fatal(err)
		}
		return planText(t, plan)
	}
	text := analyze(q, 960, 1088)
	if !regexp.MustCompile(`(?m)^\s+Scan pairs AS p \(rows=2048, time=[^,]+, windows=2/64\)`).MatchString(text) {
		t.Fatalf("range scan does not report windows=2/64:\n%s", text)
	}
	if !regexp.MustCompile(`Filter .*\(rows=128, rows_in=2048, `).MatchString(text) {
		t.Fatalf("filter does not keep 128 of the 2,048 rows read:\n%s", text)
	}
	for _, whole := range []string{
		`SELECT p.src FROM pairs p WHERE p.seq >= ? OR p.seq < ?`,
		`SELECT p.src FROM pairs p WHERE p.seq >= ? AND p.src < ?`,
	} {
		if text := analyze(whole, 0, 5); strings.Contains(text, "windows=") {
			t.Fatalf("a scan that read every window reports windows:\n%s", text)
		}
	}
	plain, err := db.Explain(q, 960, 1088)
	if err != nil {
		t.Fatal(err)
	}
	if want := "Project p.src, p.dst\n  Filter ((p.seq >= ?1) AND (p.seq < ?2))\n    Scan pairs AS p\n"; plain != want {
		t.Fatalf("plain EXPLAIN changed:\n%s\nwant\n%s", plain, want)
	}
}
