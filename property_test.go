package graphsql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// refGraph is an adjacency-list oracle with Bellman-Ford shortest
// paths, independent of every engine package.
type refGraph struct {
	n     int
	edges [][3]int64 // src, dst, weight (vertex ids are 0..n-1)
}

func (g *refGraph) distances(src int) []int64 {
	const inf = int64(1) << 60
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for _, e := range g.edges {
			if dist[e[0]] != inf && dist[e[0]]+e[2] < dist[e[1]] {
				dist[e[1]] = dist[e[0]] + e[2]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// vertices returns the ids that actually appear in the edge table
// (the reachability predicate only holds for those, §2).
func (g *refGraph) vertices() map[int]bool {
	vs := map[int]bool{}
	for _, e := range g.edges {
		vs[int(e[0])] = true
		vs[int(e[1])] = true
	}
	return vs
}

func randomRefGraph(seed int64) *refGraph {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(14)
	m := r.Intn(3 * n)
	g := &refGraph{n: n}
	for i := 0; i < m; i++ {
		g.edges = append(g.edges, [3]int64{
			int64(r.Intn(n)), int64(r.Intn(n)), int64(1 + r.Intn(9)),
		})
	}
	return g
}

// loadRefGraph loads the oracle graph into a fresh database.
func loadRefGraph(t testing.TB, g *refGraph) *DB {
	return loadRefGraphP(t, g, 0)
}

// loadRefGraphP is loadRefGraph with an explicit parallelism budget.
func loadRefGraphP(t testing.TB, g *refGraph, parallelism int) *DB {
	t.Helper()
	db := Open(WithParallelism(parallelism))
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT, w BIGINT)`)
	if len(g.edges) == 0 {
		return db
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO e VALUES `)
	for i, e := range g.edges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", e[0], e[1], e[2])
	}
	db.MustExec(b.String())
	return db
}

// TestPropertySQLWeightedShortestPaths runs the full SQL pipeline
// (parse → bind → rewrite → graph select → Dijkstra) on random graphs
// and compares every pair's cost against the Bellman-Ford oracle.
func TestPropertySQLWeightedShortestPaths(t *testing.T) {
	f := func(seed int64) bool {
		g := randomRefGraph(seed)
		if len(g.edges) == 0 {
			return true
		}
		db := loadRefGraph(t, g)
		vs := g.vertices()
		for s := 0; s < g.n; s++ {
			ref := g.distances(s)
			for d := 0; d < g.n; d++ {
				res, err := db.Query(
					`SELECT CHEAPEST SUM(f: w) WHERE ? REACHES ? OVER e f EDGE (s, d)`, s, d)
				if err != nil {
					t.Fatal(err)
				}
				reachable := vs[s] && vs[d] && ref[d] < int64(1)<<60
				if (res.Len() == 1) != reachable {
					t.Logf("seed %d: pair (%d,%d) reachable=%v but %d rows", seed, s, d, reachable, res.Len())
					return false
				}
				if reachable && res.Rows[0][0] != ref[d] {
					t.Logf("seed %d: cost(%d,%d) = %v, want %d", seed, s, d, res.Rows[0][0], ref[d])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySQLBatchedEqualsSinglePair checks that one many-to-many
// graph join over a pairs table returns exactly the per-pair results.
func TestPropertySQLBatchedEqualsSinglePair(t *testing.T) {
	f := func(seed int64) bool {
		g := randomRefGraph(seed)
		if len(g.edges) == 0 {
			return true
		}
		db := loadRefGraph(t, g)
		db.MustExec(`CREATE TABLE pairs (a BIGINT, b BIGINT)`)
		r := rand.New(rand.NewSource(seed ^ 0x55))
		for i := 0; i < 10; i++ {
			db.MustExec(`INSERT INTO pairs VALUES (?, ?)`, r.Intn(g.n), r.Intn(g.n))
		}
		batched, err := db.Query(`
			SELECT p.a, p.b, CHEAPEST SUM(f: w) AS c
			FROM pairs p
			WHERE p.a REACHES p.b OVER e f EDGE (s, d)`)
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]int64][]int64{}
		for _, row := range batched.Rows {
			k := [2]int64{row[0].(int64), row[1].(int64)}
			got[k] = append(got[k], row[2].(int64))
		}
		// Each pair occurrence answered independently must agree.
		pairs, err := db.Query(`SELECT a, b FROM pairs`)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[[2]int64]int{}
		for _, row := range pairs.Rows {
			counts[[2]int64{row[0].(int64), row[1].(int64)}]++
		}
		for k, c := range counts {
			single, err := db.Query(
				`SELECT CHEAPEST SUM(f: w) WHERE ? REACHES ? OVER e f EDGE (s, d)`, k[0], k[1])
			if err != nil {
				t.Fatal(err)
			}
			if single.Len() == 0 {
				if len(got[k]) != 0 {
					return false
				}
				continue
			}
			if len(got[k]) != c {
				t.Logf("seed %d: pair %v occurs %d times, batched returned %d rows", seed, k, c, len(got[k]))
				return false
			}
			for _, v := range got[k] {
				if v != single.Rows[0][0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// parallelEquivalenceQueries are the random-plan shapes of the
// parallel-vs-sequential property test: every parallelized operator
// (hash join, aggregation, sort, DISTINCT, set operations, graph match
// with path materialization) over the random oracle graph's edge
// table. Queries without ORDER BY rely on the engine's determinism
// guarantee — which is exactly what is being tested.
var parallelEquivalenceQueries = []string{
	`SELECT s, COUNT(*), SUM(w), MIN(d), MAX(w), AVG(w) FROM e GROUP BY s`,
	`SELECT COUNT(*), SUM(w), AVG(w), COUNT(DISTINCT s) FROM e`,
	`SELECT DISTINCT s, d FROM e`,
	`SELECT a.s, a.d, b.d, a.w + b.w FROM e a JOIN e b ON a.d = b.s`,
	`SELECT a.s, b.w FROM e a LEFT JOIN e b ON a.d = b.s AND b.w > 5`,
	`SELECT a.s, b.s FROM e a JOIN e b ON a.w = b.w AND a.s < b.d`,
	`SELECT s, d, w FROM e ORDER BY w DESC, s, d`,
	`SELECT s FROM e UNION SELECT d FROM e`,
	`SELECT s FROM e UNION ALL SELECT d FROM e`,
	`SELECT s FROM e EXCEPT ALL SELECT d FROM e`,
	`SELECT s, d FROM e INTERSECT SELECT d, s FROM e`,
	`SELECT x.s, x.d, CHEAPEST SUM(f: w) AS c FROM e x
	 WHERE x.s REACHES x.d OVER e f EDGE (s, d) ORDER BY c DESC, x.s, x.d`,
	`SELECT q.s, SUM(r.w) FROM (
	   SELECT x.s, x.d, CHEAPEST SUM(f: w) AS (c, p) FROM e x
	   WHERE x.s REACHES x.d OVER e f EDGE (s, d)
	 ) q, UNNEST(q.p) AS r GROUP BY q.s`,
	`SELECT s % 3, COUNT(*), MIN(w) FROM e WHERE d >= 0 GROUP BY s % 3 HAVING COUNT(*) > 1`,
}

// TestPropertyParallelEquivalence runs the full SQL pipeline over
// random graphs twice — sequentially and over a worker pool with the
// size gates open — and requires byte-identical result
// renderings for every plan shape.
func TestPropertyParallelEquivalence(t *testing.T) {
	forceParallelOperators(t)
	f := func(seed int64) bool {
		g := randomRefGraph(seed)
		if len(g.edges) == 0 {
			return true
		}
		seq := loadRefGraphP(t, g, 1)
		par := loadRefGraphP(t, g, 8)
		for _, q := range parallelEquivalenceQueries {
			want, err := seq.Query(q)
			if err != nil {
				t.Fatalf("seed %d: sequential: %v\nquery: %s", seed, err, q)
			}
			got, err := par.Query(q)
			if err != nil {
				t.Fatalf("seed %d: parallel: %v\nquery: %s", seed, err, q)
			}
			if got.String() != want.String() {
				t.Logf("seed %d: parallel output diverges\nquery: %s\n--- sequential\n%s--- parallel\n%s",
					seed, q, want.String(), got.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUnnestReconstructsCost flattens every returned path and
// re-sums its weights; the sum must equal the reported cost, and the
// hops must chain from source to destination.
func TestPropertyUnnestReconstructsCost(t *testing.T) {
	f := func(seed int64) bool {
		g := randomRefGraph(seed)
		if len(g.edges) == 0 {
			return true
		}
		db := loadRefGraph(t, g)
		r := rand.New(rand.NewSource(seed ^ 0x99))
		for try := 0; try < 8; try++ {
			s, d := r.Intn(g.n), r.Intn(g.n)
			res, err := db.Query(`
				SELECT t.c, r.s, r.d, r.w, r.ordinality
				FROM (
					SELECT CHEAPEST SUM(f: w) AS (c, p)
					WHERE ? REACHES ? OVER e f EDGE (s, d)
				) t, UNNEST(t.p) WITH ORDINALITY AS r
				ORDER BY r.ordinality`, s, d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() == 0 {
				continue
			}
			cost := res.Rows[0][0].(int64)
			var sum int64
			at := int64(s)
			for i, row := range res.Rows {
				if row[1].(int64) != at {
					t.Logf("seed %d: hop %d starts at %v, cursor %d", seed, i, row[1], at)
					return false
				}
				at = row[2].(int64)
				sum += row[3].(int64)
				if row[4].(int64) != int64(i+1) {
					return false
				}
			}
			if at != int64(d) || sum != cost {
				t.Logf("seed %d: path ends at %d (want %d), sum %d (want %d)", seed, at, d, sum, cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
