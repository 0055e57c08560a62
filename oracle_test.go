package graphsql

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"graphsql/internal/testutil"
)

// The SQL-level oracle test checks REACHES and CHEAPEST SUM — issued
// as SQL, through parser, binder, GraphMatch and the facade — against
// testutil's adjacency-map BFS and Floyd–Warshall, which share no code
// with the engine. Graphs are tiny (at most 12 vertices) and hostile:
// self-loops, parallel edges with different weights, small integer
// weights that force equal-cost ties, float weights, vertices no edge
// touches, a NULL endpoint. Reachability, hop counts and costs are
// compared by value. Paths are compared for validity and optimality,
// not identity: with ties several shortest paths exist and which one
// the solver returns is its own business.

const oracleGraphs = 300

// oracleGraph generates one random graph: n vertex ids 0..n-1 (not all
// of which need occur in an edge) and the edge list.
func oracleGraph(r *rand.Rand) (n int, edges []testutil.OracleEdge) {
	n = 2 + r.Intn(11)
	m := r.Intn(3 * n)
	for len(edges) < m {
		e := testutil.OracleEdge{
			Src: int64(r.Intn(n)),
			Dst: int64(r.Intn(n)),
			W:   int64(1 + r.Intn(3)),
			// Multiples of 1/4 add exactly in any order, so float costs
			// compare by value whatever order a solver sums them in.
			F: 0.25 * float64(1+r.Intn(8)),
		}
		switch r.Intn(10) {
		case 0:
			e.Dst = e.Src // self-loop
		case 1:
			if len(edges) > 0 { // parallel edge, fresh weights
				p := edges[r.Intn(len(edges))]
				e.Src, e.Dst = p.Src, p.Dst
			}
		}
		edges = append(edges, e)
	}
	return n, edges
}

func insertEdges(t *testing.T, db *DB, edges []testutil.OracleEdge) {
	t.Helper()
	if len(edges) == 0 {
		return
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO e VALUES `)
	for i, e := range edges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %s)", e.Src, e.Dst, e.W, strconv.FormatFloat(e.F, 'f', -1, 64))
	}
	db.MustExec(b.String())
}

// openOracleDB loads the graph through INSERTs. With indexed set, the
// graph index is built over the first half of the edges and the rest
// arrive afterwards, so queries run on snapshot plus delta.
func openOracleDB(t *testing.T, n int, edges []testutil.OracleEdge, indexed bool) *DB {
	t.Helper()
	db := Open(WithParallelism(2))
	db.MustExec(`CREATE TABLE e (src BIGINT, dst BIGINT, w BIGINT, f DOUBLE)`)
	db.MustExec(`CREATE TABLE v (id BIGINT)`)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("(%d)", i)
	}
	db.MustExec(`INSERT INTO v VALUES ` + strings.Join(ids, ", ") + `, (NULL)`)
	if !indexed {
		insertEdges(t, db, edges)
		return db
	}
	half := len(edges) / 2
	insertEdges(t, db, edges[:half])
	if err := db.BuildGraphIndex("e", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	insertEdges(t, db, edges[half:])
	return db
}

// checkPath requires p to be a walk from a to b made of rows of the
// edge table whose summed weight equals cost — which, with cost already
// checked against the oracle, makes it a cheapest path.
func checkPath(p *Path, a, b int64, cost float64, edges []testutil.OracleEdge, weight func(testutil.OracleEdge) float64) error {
	if got, want := strings.Join(p.Columns, ","), "src,dst,w,f"; got != want {
		return fmt.Errorf("path columns %q, want %q", got, want)
	}
	at, sum := a, 0.0
	for i, row := range p.Rows {
		e := testutil.OracleEdge{Src: row[0].(int64), Dst: row[1].(int64), W: row[2].(int64), F: row[3].(float64)}
		known := false
		for _, have := range edges {
			known = known || have == e
		}
		if !known {
			return fmt.Errorf("edge %d %+v is not a row of the edge table", i, e)
		}
		if e.Src != at {
			return fmt.Errorf("edge %d starts at %d, previous edge ended at %d", i, e.Src, at)
		}
		at = e.Dst
		sum += weight(e)
	}
	if at != b {
		return fmt.Errorf("path ends at %d, want %d", at, b)
	}
	if sum != cost {
		return fmt.Errorf("path weights sum to %v, reported cost %v", sum, cost)
	}
	return nil
}

func TestShortestPathsAgainstOracle(t *testing.T) {
	intW := func(e testutil.OracleEdge) float64 { return float64(e.W) }
	floatW := func(e testutil.OracleEdge) float64 { return e.F }
	num := func(v any) float64 {
		if i, ok := v.(int64); ok {
			return float64(i)
		}
		return v.(float64)
	}
	const reachQ = `SELECT a.id, b.id FROM v a, v b WHERE a.id REACHES b.id OVER e EDGE (src, dst)`
	const costQ = `SELECT a.id, b.id, CHEAPEST SUM(1) AS hops,
			CHEAPEST SUM(x: w) AS (icost, ipath), CHEAPEST SUM(x: f) AS (fcost, fpath)
		FROM v a, v b WHERE a.id REACHES b.id OVER e x EDGE (src, dst)`
	// The cross joins give every source several destinations. Over the
	// graph index, reachQ and hopsQ search them from both ends, one at
	// a time, until one forward traversal is projected to be cheaper;
	// costQ asks for paths and weights, so it always searches forward.
	// Each pair is also asked on its own, a group of one destination.
	const hopsQ = `SELECT a.id, b.id, CHEAPEST SUM(1) AS hops
		FROM v a, v b WHERE a.id REACHES b.id OVER e EDGE (src, dst)`
	const pairReachQ = `SELECT 1 AS r WHERE ? REACHES ? OVER e EDGE (src, dst)`
	const pairHopsQ = `SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER e EDGE (src, dst)`

	pairs, selfLoops, parallel, unreachable := 0, 0, 0, 0
	single, deltaOnly, selfPairs, singleUnreachable := 0, 0, 0, 0
	for g := 0; g < oracleGraphs; g++ {
		n, edges := oracleGraph(rand.New(rand.NewSource(int64(g))))
		seenEdge := map[[2]int64]bool{}
		for _, e := range edges {
			if e.Src == e.Dst {
				selfLoops++
			}
			if seenEdge[[2]int64{e.Src, e.Dst}] {
				parallel++
			}
			seenEdge[[2]int64{e.Src, e.Dst}] = true
		}
		icost := testutil.OracleFloydWarshall(edges, intW)
		fcost := testutil.OracleFloydWarshall(edges, floatW)
		hops := map[[2]int64]int{}
		for a := int64(0); a < int64(n); a++ {
			for b, h := range testutil.OracleBFS(edges, a) {
				hops[[2]int64{a, b}] = h
			}
		}
		if len(hops) != len(icost) || len(hops) != len(fcost) {
			t.Fatalf("graph %d: oracles disagree on reachability: BFS %d pairs, Floyd–Warshall %d / %d", g, len(hops), len(icost), len(fcost))
		}
		unreachable += n*n - len(hops)

		for _, indexed := range []bool{false, true} {
			db := openOracleDB(t, n, edges, indexed)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("graph %d (indexed=%v, %d vertices, edges %+v): %s", g, indexed, n, edges, fmt.Sprintf(format, args...))
			}

			reach, err := db.Query(reachQ)
			if err != nil {
				fail("%v", err)
			}
			if reach.Len() != len(hops) {
				fail("REACHES returned %d pairs, oracle %d", reach.Len(), len(hops))
			}
			for _, row := range reach.Rows {
				if _, ok := hops[[2]int64{row[0].(int64), row[1].(int64)}]; !ok {
					fail("REACHES claims %v reaches %v; the oracle disagrees", row[0], row[1])
				}
			}

			unit, err := db.Query(hopsQ)
			if err != nil {
				fail("%v", err)
			}
			if unit.Len() != len(hops) {
				fail("CHEAPEST SUM(1) returned %d pairs, oracle %d", unit.Len(), len(hops))
			}
			for _, row := range unit.Rows {
				a, b := row[0].(int64), row[1].(int64)
				wantHops, ok := hops[[2]int64{a, b}]
				if !ok {
					fail("CHEAPEST SUM(1) answers unreachable pair %d→%d", a, b)
				}
				if got := row[2].(int64); got != int64(wantHops) {
					fail("%d→%d: CHEAPEST SUM(1) hops %d, oracle %d", a, b, got, wantHops)
				}
			}

			res, err := db.Query(costQ)
			if err != nil {
				fail("%v", err)
			}
			if res.Len() != len(hops) {
				fail("CHEAPEST SUM returned %d pairs, oracle %d", res.Len(), len(hops))
			}
			for _, row := range res.Rows {
				a, b := row[0].(int64), row[1].(int64)
				k := [2]int64{a, b}
				wantHops, ok := hops[k]
				if !ok {
					fail("CHEAPEST SUM answers unreachable pair %d→%d", a, b)
				}
				pairs++
				if got := row[2].(int64); got != int64(wantHops) {
					fail("%d→%d: hops %d, oracle %d", a, b, got, wantHops)
				}
				if got := num(row[3]); got != icost[k] {
					fail("%d→%d: int cost %v, oracle %v", a, b, got, icost[k])
				}
				if got := num(row[5]); got != fcost[k] {
					fail("%d→%d: float cost %v, oracle %v", a, b, got, fcost[k])
				}
				if err := checkPath(row[4].(*Path), a, b, icost[k], edges, intW); err != nil {
					fail("%d→%d: int-weight path %v: %v", a, b, row[4], err)
				}
				if err := checkPath(row[6].(*Path), a, b, fcost[k], edges, floatW); err != nil {
					fail("%d→%d: float-weight path %v: %v", a, b, row[6], err)
				}
			}
			if !indexed {
				continue
			}

			// Vertices only the delta (the edges inserted after the
			// index was built) knows.
			snapshot := map[int64]bool{}
			for _, e := range edges[:len(edges)/2] {
				snapshot[e.Src], snapshot[e.Dst] = true, true
			}
			late := map[int64]bool{}
			for _, e := range edges[len(edges)/2:] {
				for _, v := range [2]int64{e.Src, e.Dst} {
					late[v] = !snapshot[v]
				}
			}
			for a := int64(0); a < int64(n); a++ {
				for b := int64(0); b < int64(n); b++ {
					wantHops, ok := hops[[2]int64{a, b}]
					reach, err := db.Query(pairReachQ, a, b)
					if err != nil {
						fail("%v", err)
					}
					if reach.Len() != 1 && ok || reach.Len() != 0 && !ok {
						fail("single pair %d→%d: REACHES returned %d rows, oracle reachable %v", a, b, reach.Len(), ok)
					}
					res, err := db.Query(pairHopsQ, a, b)
					if err != nil {
						fail("%v", err)
					}
					if res.Len() != 1 && ok || res.Len() != 0 && !ok {
						fail("single pair %d→%d: CHEAPEST SUM(1) returned %d rows, oracle reachable %v", a, b, res.Len(), ok)
					}
					if ok && res.Rows[0][0].(int64) != int64(wantHops) {
						fail("single pair %d→%d: hops %v, oracle %d", a, b, res.Rows[0][0], wantHops)
					}
					single++
					if late[a] || late[b] {
						deltaOnly++
					}
					if a == b {
						selfPairs++
					}
					if !ok {
						singleUnreachable++
					}
				}
			}
		}
	}
	if single == 0 || deltaOnly == 0 || selfPairs == 0 || singleUnreachable == 0 {
		t.Fatalf("vacuous single-pair run: %d pairs, %d with a delta-only vertex, %d self pairs, %d unreachable",
			single, deltaOnly, selfPairs, singleUnreachable)
	}
	// The generator must actually have produced the hostile shapes.
	if pairs == 0 || selfLoops == 0 || parallel == 0 || unreachable == 0 {
		t.Fatalf("vacuous run: %d pairs checked, %d self-loops, %d parallel edges, %d unreachable pairs",
			pairs, selfLoops, parallel, unreachable)
	}
	t.Logf("%d graphs: %d reachable pairs checked twice, %d unreachable, %d self-loops, %d parallel edges",
		oracleGraphs, pairs/2, unreachable, selfLoops, parallel)
	t.Logf("single pairs over the index: %d, %d with a delta-only vertex, %d self pairs, %d unreachable",
		single, deltaOnly, selfPairs, singleUnreachable)
}
