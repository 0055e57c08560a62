package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"graphsql/internal/trace"
	"graphsql/internal/types"
)

const pairQ = `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)`

func dynEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE e (s BIGINT, d BIGINT);
		INSERT INTO e VALUES (1,2), (2,3);
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

func dist(t *testing.T, e *Engine, s, d int64) int64 {
	t.Helper()
	got, _ := tracedDist(t, e, s, d)
	return got
}

// tracedDist runs pairQ under a trace and returns the distance (-1 when
// unreachable) with the GraphMatch span, whose attributes say how the
// operator got its graph.
func tracedDist(t *testing.T, e *Engine, s, d int64) (int64, *trace.Node) {
	t.Helper()
	params := []types.Value{types.NewInt(s), types.NewInt(d)}
	p, err := e.Prepare(pairQ, params...)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	cur, err := e.ExecPreparedCursor(context.Background(), p, &ExecOptions{Parallelism: -1, Trace: tr}, params...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	gm := findSpan(tr.Tree(), "GraphMatch")
	if gm == nil {
		t.Fatalf("no GraphMatch span:\n%s", trace.Render(tr.Tree()))
	}
	if res.NumRows() == 0 {
		return -1, gm
	}
	return res.Cols[0].Ints[0], gm
}

// findSpan returns the last span (pre-order) whose name starts with
// prefix, or nil.
func findSpan(n *trace.Node, prefix string) *trace.Node {
	var found *trace.Node
	if strings.HasPrefix(n.Name, prefix) {
		found = n
	}
	for _, c := range n.Children {
		if f := findSpan(c, prefix); f != nil {
			found = f
		}
	}
	return found
}

func TestDynamicIndexAbsorbsInsertsThroughSQL(t *testing.T) {
	e := dynEngine(t)
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	got, gm := tracedDist(t, e, 1, 3)
	if got != 2 {
		t.Fatalf("dist(1,3) = %d, want 2", got)
	}
	if gm.Index != trace.IndexHit {
		t.Fatalf("current index: span index = %q, want %q", gm.Index, trace.IndexHit)
	}
	// Insert a shortcut and a new vertex; the index must absorb both
	// without a rebuild (delta below the 64-edge floor).
	if _, err := e.QueryCtx(context.Background(), `INSERT INTO e VALUES (1, 3), (3, 9)`); err != nil {
		t.Fatal(err)
	}
	got, gm = tracedDist(t, e, 1, 3)
	if got != 1 {
		t.Fatalf("dist(1,3) after shortcut = %d, want 1", got)
	}
	if gm.Index != trace.IndexRefresh {
		t.Fatalf("small delta: span index = %q, want %q (a delta refresh, not a rebuild)", gm.Index, trace.IndexRefresh)
	}
	if gm.GraphVertices != 0 || gm.GraphEdges != 0 {
		t.Fatalf("indexed query built an ad hoc graph (%d vertices, %d edges)", gm.GraphVertices, gm.GraphEdges)
	}
	got, gm = tracedDist(t, e, 1, 9)
	if got != 2 {
		t.Fatalf("dist(1,9) to the new vertex = %d, want 2", got)
	}
	if gm.Index != trace.IndexHit {
		t.Fatalf("absorbed delta: span index = %q, want %q", gm.Index, trace.IndexHit)
	}
}

func TestDynamicIndexRebuildThroughSQL(t *testing.T) {
	e := dynEngine(t)
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	// Append a long chain: > 64 edges forces a snapshot rebuild.
	for i := 3; i < 90; i++ {
		if _, err := e.QueryCtx(context.Background(), fmt.Sprintf(`INSERT INTO e VALUES (%d, %d)`, i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	got, gm := tracedDist(t, e, 1, 90)
	if got != 89 {
		t.Fatalf("dist(1,90) = %d, want 89", got)
	}
	if gm.Index != trace.IndexRebuild {
		t.Fatalf("outgrown delta: span index = %q, want %q", gm.Index, trace.IndexRebuild)
	}
	if _, gm = tracedDist(t, e, 1, 90); gm.Index != trace.IndexHit {
		t.Fatalf("after the rebuild: span index = %q, want %q (exactly one rebuild)", gm.Index, trace.IndexHit)
	}
}

func TestDeleteInvalidatesDynamicIndex(t *testing.T) {
	e := dynEngine(t)
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryCtx(context.Background(), `DELETE FROM e WHERE d = 3`); err != nil {
		t.Fatal(err)
	}
	// 1 can no longer reach 3; the query must not use the stale index.
	got, gm := tracedDist(t, e, 1, 3)
	if got != -1 {
		t.Fatalf("dist(1,3) after delete = %d, want unreachable", got)
	}
	if gm.Index != "" {
		t.Fatalf("deleted-from table served by an index (span index = %q)", gm.Index)
	}
	if gm.GraphVertices != 2 || gm.GraphEdges != 1 {
		t.Fatalf("ad hoc graph = %d vertices, %d edges, want 2 and 1", gm.GraphVertices, gm.GraphEdges)
	}
}

func TestWeightedQueriesThroughDynamicIndex(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE e (s BIGINT, d BIGINT, w BIGINT);
		INSERT INTO e VALUES (1,2,10), (2,3,10);
	`); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT CHEAPEST SUM(f: w) WHERE ? REACHES ? OVER e f EDGE (s, d)`
	res, err := e.QueryCtx(context.Background(), q, types.NewInt(1), types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0].Ints[0] != 20 {
		t.Fatalf("weighted cost = %d, want 20", res.Cols[0].Ints[0])
	}
	// A cheaper delta edge must win, with its weight read correctly.
	if _, err := e.QueryCtx(context.Background(), `INSERT INTO e VALUES (1, 3, 5)`); err != nil {
		t.Fatal(err)
	}
	res, err = e.QueryCtx(context.Background(), q, types.NewInt(1), types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0].Ints[0] != 5 {
		t.Fatalf("weighted cost via delta = %d, want 5", res.Cols[0].Ints[0])
	}
}

func TestPathThroughDynamicIndexDeltaEdge(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE e (s BIGINT, d BIGINT);
		INSERT INTO e VALUES (1,2);
	`); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryCtx(context.Background(), `INSERT INTO e VALUES (2, 3)`); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryCtx(context.Background(), `
		SELECT r.s, r.d
		FROM (
			SELECT CHEAPEST SUM(f: 1) AS (c, p)
			WHERE 1 REACHES 3 OVER e f EDGE (s, d)
		) t, UNNEST(t.p) WITH ORDINALITY AS r
		ORDER BY r.ordinality`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("path rows = %d, want 2\n%s", res.NumRows(), res)
	}
	if res.Cols[0].Ints[1] != 2 || res.Cols[1].Ints[1] != 3 {
		t.Fatalf("delta hop = (%d,%d), want (2,3)", res.Cols[0].Ints[1], res.Cols[1].Ints[1])
	}
}
