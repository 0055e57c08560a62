package graphsql

import (
	"strings"
	"testing"
)

// appendixDB builds the sample data of the paper's appendix (figure 2):
// Persons and Friends with creationDate and weight.
func appendixDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE persons (id BIGINT, firstName VARCHAR, lastName VARCHAR)`)
	db.MustExec(`CREATE TABLE friends (person1 BIGINT, person2 BIGINT, creationDate DATE, weight DOUBLE)`)
	db.MustExec(`INSERT INTO persons VALUES
		(933,  'Mahinda', 'Perera'),
		(1129, 'Carmen',  'Lepland'),
		(8333, 'Chen',    'Wang'),
		(4139, 'Hans',    'Johansson')`)
	// Undirected friendships stored as two directed edges, as in §4.
	db.MustExec(`INSERT INTO friends VALUES
		(933,  1129, '2010-03-24', 0.5),
		(1129, 933,  '2010-03-24', 0.5),
		(1129, 8333, '2010-12-02', 2.0),
		(8333, 1129, '2010-12-02', 2.0),
		(8333, 4139, '2012-06-08', 1.0),
		(4139, 8333, '2012-06-08', 1.0)`)
	return db
}

func TestQueryA1CostOfShortestPath(t *testing.T) {
	db := appendixDB(t)
	// LDBC SNB Q13 shape: paper appendix A.1.
	got, err := db.QueryScalar(
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`,
		933, 8333)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(2) {
		t.Fatalf("distance = %v, want 2", got)
	}
}

func TestQueryA2VertexProperties(t *testing.T) {
	db := appendixDB(t)
	res, err := db.Query(`
		SELECT p1.firstName || ' ' || p1.lastName AS person1,
		       p2.firstName || ' ' || p2.lastName AS person2,
		       CHEAPEST SUM(1) AS distance
		FROM persons p1, persons p2
		WHERE p1.id = ? AND p2.id = ?
		  AND p1.id REACHES p2.id OVER friends EDGE (person1, person2)`,
		933, 8333)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("got %d rows, want 1\n%s", res.Len(), res)
	}
	row := res.Rows[0]
	if row[0] != "Mahinda Perera" || row[1] != "Chen Wang" || row[2] != int64(2) {
		t.Fatalf("row = %v, want [Mahinda Perera, Chen Wang, 2]", row)
	}
}

func TestQueryA3ReachabilityOverCTE(t *testing.T) {
	db := appendixDB(t)
	res, err := db.Query(`
		WITH friends1 AS (
			SELECT * FROM friends WHERE creationDate < '2011-01-01'
		)
		SELECT firstName || ' ' || lastName AS person
		FROM persons
		WHERE ? REACHES id OVER friends1 EDGE (person1, person2)
		ORDER BY person`,
		933)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Carmen Lepland", "Chen Wang", "Mahinda Perera"}
	if res.Len() != len(want) {
		t.Fatalf("got %d rows, want %d\n%s", res.Len(), len(want), res)
	}
	for i, w := range want {
		if res.Rows[i][0] != w {
			t.Errorf("row %d = %v, want %s", i, res.Rows[i][0], w)
		}
	}
}

func TestQueryA4WeightedPathsAndUnnest(t *testing.T) {
	db := appendixDB(t)
	res, err := db.Query(`
		WITH friends1 AS (
			SELECT * FROM friends WHERE creationDate < '2011-01-01'
		)
		SELECT firstName || ' ' || lastName AS person,
		       CHEAPEST SUM(f: CAST(weight * 2 AS int)) AS (cost, path)
		FROM persons
		WHERE ? REACHES id OVER friends1 f EDGE (person1, person2)
		ORDER BY cost`,
		933)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("got %d rows, want 3\n%s", res.Len(), res)
	}
	// Row 0: Mahinda, cost 0, empty path.
	if res.Rows[0][0] != "Mahinda Perera" || res.Rows[0][1] != int64(0) {
		t.Fatalf("row 0 = %v", res.Rows[0])
	}
	if p := res.Rows[0][2].(*Path); p.Len() != 0 {
		t.Fatalf("Mahinda's path should be empty, got %v", p)
	}
	if res.Rows[1][0] != "Carmen Lepland" || res.Rows[1][1] != int64(1) {
		t.Fatalf("row 1 = %v", res.Rows[1])
	}
	if res.Rows[2][0] != "Chen Wang" || res.Rows[2][1] != int64(5) {
		t.Fatalf("row 2 = %v", res.Rows[2])
	}
	if p := res.Rows[2][2].(*Path); p.Len() != 2 {
		t.Fatalf("Chen's path should have 2 hops, got %v", p)
	}

	// Unnesting drops the empty path (inner lateral join).
	res2, err := db.Query(`
		SELECT T.person, T.cost, R.person1, R.person2
		FROM (
			WITH friends1 AS (
				SELECT * FROM friends WHERE creationDate < '2011-01-01'
			)
			SELECT firstName || ' ' || lastName AS person,
			       CHEAPEST SUM(f: CAST(weight * 2 AS int)) AS (cost, path)
			FROM persons
			WHERE ? REACHES id OVER friends1 f EDGE (person1, person2)
		) T, UNNEST(T.path) AS R
		ORDER BY T.cost, R.person1`,
		933)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 3 {
		t.Fatalf("unnested: got %d rows, want 3\n%s", res2.Len(), res2)
	}
	// Carmen: 933->1129. Chen: 933->1129, 1129->8333.
	if res2.Rows[0][0] != "Carmen Lepland" || res2.Rows[0][2] != int64(933) || res2.Rows[0][3] != int64(1129) {
		t.Fatalf("row 0 = %v", res2.Rows[0])
	}
	if res2.Rows[1][0] != "Chen Wang" || res2.Rows[1][2] != int64(933) {
		t.Fatalf("row 1 = %v", res2.Rows[1])
	}
	if res2.Rows[2][0] != "Chen Wang" || res2.Rows[2][2] != int64(1129) || res2.Rows[2][3] != int64(8333) {
		t.Fatalf("row 2 = %v", res2.Rows[2])
	}
}

func TestOuterUnnestKeepsEmptyPaths(t *testing.T) {
	db := appendixDB(t)
	res, err := db.Query(`
		SELECT T.person, T.cost, R.person1
		FROM (
			SELECT firstName AS person,
			       CHEAPEST SUM(f: 1) AS (cost, path)
			FROM persons
			WHERE ? REACHES id OVER friends f EDGE (person1, person2)
		) T LEFT JOIN UNNEST(T.path) AS R ON TRUE
		ORDER BY T.cost, R.person1 NULLS FIRST`,
		933)
	if err != nil {
		t.Fatal(err)
	}
	// Mahinda (cost 0) must survive with NULL person1.
	if res.Len() == 0 || res.Rows[0][0] != "Mahinda" || res.Rows[0][2] != nil {
		t.Fatalf("outer unnest lost the empty path:\n%s", res)
	}
}

func TestUnnestWithOrdinality(t *testing.T) {
	db := appendixDB(t)
	res, err := db.Query(`
		SELECT R.person1, R.person2, R.ordinality
		FROM (
			SELECT CHEAPEST SUM(f: 1) AS (cost, path)
			WHERE ? REACHES ? OVER friends f EDGE (person1, person2)
		) T, UNNEST(T.path) WITH ORDINALITY AS R
		ORDER BY R.ordinality`,
		933, 4139)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("expected a 3-hop path, got %d rows\n%s", res.Len(), res)
	}
	for i := 0; i < 3; i++ {
		if res.Rows[i][2] != int64(i+1) {
			t.Errorf("ordinality row %d = %v, want %d", i, res.Rows[i][2], i+1)
		}
	}
	// Hops must chain: person2 of hop i == person1 of hop i+1.
	for i := 0; i+1 < 3; i++ {
		if res.Rows[i][1] != res.Rows[i+1][0] {
			t.Errorf("path does not chain at hop %d: %v -> %v", i, res.Rows[i][1], res.Rows[i+1][0])
		}
	}
}

func TestUnreachablePairsAreFiltered(t *testing.T) {
	db := appendixDB(t)
	db.MustExec(`INSERT INTO persons VALUES (9999, 'Iso', 'Lated')`)
	res, err := db.Query(
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`,
		933, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("unreachable pair should yield no rows, got\n%s", res)
	}
}

func TestNonPositiveWeightErrors(t *testing.T) {
	db := appendixDB(t)
	_, err := db.Query(
		`SELECT CHEAPEST SUM(f: weight - 0.5)
		 WHERE ? REACHES ? OVER friends f EDGE (person1, person2)`,
		933, 8333)
	if err == nil || !strings.Contains(err.Error(), "positive") {
		t.Fatalf("expected strictly-positive weight error, got %v", err)
	}
	_, err = db.Query(
		`SELECT CHEAPEST SUM(0) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`,
		933, 8333)
	if err == nil || !strings.Contains(err.Error(), "positive") {
		t.Fatalf("expected strictly-positive weight error for constant, got %v", err)
	}
}

// TestNaNWeightErrors pins the §2 positivity rule for NaN, which fails
// every comparison and so used to slip through a `w <= 0` check: a
// constant NaN weight returned cost NaN, and a NaN edge beat a finite
// two-hop path. Both must be rejected, ad hoc and over a graph index.
func TestNaNWeightErrors(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT, w DOUBLE)`)
	db.MustExec(`INSERT INTO e VALUES (1, 3, CAST('NaN' AS DOUBLE)), (1, 2, 1.0), (2, 3, 1.0)`)
	for _, indexed := range []bool{false, true} {
		if indexed {
			if err := db.BuildGraphIndex("e", "s", "d"); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{
			`SELECT CHEAPEST SUM(CAST('NaN' AS DOUBLE)) WHERE 1 REACHES 3 OVER e EDGE (s, d)`,
			`SELECT CHEAPEST SUM(x: w) AS (c, p) WHERE 1 REACHES 3 OVER e x EDGE (s, d)`,
		} {
			res, err := db.Query(q)
			if err == nil || !strings.Contains(err.Error(), "positive") {
				t.Fatalf("indexed=%v: %s\nexpected strictly-positive weight error, got %v\n%s", indexed, q, err, res)
			}
		}
	}
}

func TestGraphIndexMatchesAdHoc(t *testing.T) {
	db := appendixDB(t)
	adhoc, err := db.QueryScalar(
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`, 933, 4139)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGraphIndex("friends", "person1", "person2"); err != nil {
		t.Fatal(err)
	}
	indexed, err := db.QueryScalar(
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`, 933, 4139)
	if err != nil {
		t.Fatal(err)
	}
	if adhoc != indexed {
		t.Fatalf("indexed result %v != ad hoc %v", indexed, adhoc)
	}
	// Writes invalidate: a new shortcut edge must be visible.
	db.MustExec(`INSERT INTO friends VALUES (933, 4139, '2024-01-01', 1.0)`)
	after, err := db.QueryScalar(
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`, 933, 4139)
	if err != nil {
		t.Fatal(err)
	}
	if after != int64(1) {
		t.Fatalf("after shortcut insert distance = %v, want 1 (stale index?)", after)
	}
}

func TestWeightedFloatDijkstra(t *testing.T) {
	db := appendixDB(t)
	got, err := db.QueryScalar(
		`SELECT CHEAPEST SUM(f: weight)
		 WHERE ? REACHES ? OVER friends f EDGE (person1, person2)`,
		933, 4139)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.5 { // 0.5 + 2.0 + 1.0
		t.Fatalf("weighted cost = %v, want 3.5", got)
	}
}

func TestReachesAsJoinPredicate(t *testing.T) {
	db := appendixDB(t)
	// Graph join: all connected pairs (the paper's VP1 x VP2 form).
	res, err := db.Query(`
		SELECT p1.id, p2.id
		FROM persons p1, persons p2
		WHERE p1.id REACHES p2.id OVER friends EDGE (person1, person2)
		  AND p1.id <> p2.id
		ORDER BY p1.id, p2.id`)
	if err != nil {
		t.Fatal(err)
	}
	// 4 mutually connected persons -> 12 ordered pairs.
	if res.Len() != 12 {
		t.Fatalf("connected pairs = %d, want 12\n%s", res.Len(), res)
	}
}

func TestMultipleReachesPredicates(t *testing.T) {
	db := appendixDB(t)
	res, err := db.Query(`
		SELECT CHEAPEST SUM(a: 1) AS hops1, CHEAPEST SUM(b: 1) AS hops2
		WHERE ? REACHES ? OVER friends a EDGE (person1, person2)
		  AND ? REACHES ? OVER friends b EDGE (person2, person1)`,
		933, 8333, 8333, 933)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != int64(2) || res.Rows[0][1] != int64(2) {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestSelfPairIsReachableWithCostZero(t *testing.T) {
	db := appendixDB(t)
	got, err := db.QueryScalar(
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`,
		933, 933)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(0) {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestNonVertexKeysFailPredicate(t *testing.T) {
	db := appendixDB(t)
	// 123456 is not a vertex (appears in neither person1 nor person2).
	res, err := db.Query(
		`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (person1, person2)`,
		123456, 933)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("non-vertex source must fail the predicate, got\n%s", res)
	}
}

func TestTypeMismatchIsSemanticError(t *testing.T) {
	db := appendixDB(t)
	_, err := db.Query(
		`SELECT CHEAPEST SUM(1)
		 FROM persons
		 WHERE firstName REACHES id OVER friends EDGE (person1, person2)`)
	if err == nil || !strings.Contains(err.Error(), "type") {
		t.Fatalf("expected a type mismatch error, got %v", err)
	}
}
