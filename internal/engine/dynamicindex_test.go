package engine

import (
	"context"
	"fmt"
	"testing"

	"graphsql/internal/exec"
	"graphsql/internal/types"
)

const pairQ = `SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)`

func dynEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if _, err := e.ExecScript(`
		CREATE TABLE e (s BIGINT, d BIGINT);
		INSERT INTO e VALUES (1,2), (2,3);
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

func dist(t *testing.T, e *Engine, s, d int64) int64 {
	t.Helper()
	res, err := e.QueryCtx(context.Background(), pairQ, types.NewInt(s), types.NewInt(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		return -1
	}
	return res.Cols[0].Ints[0]
}

func TestDynamicIndexAbsorbsInsertsThroughSQL(t *testing.T) {
	e := dynEngine(t)
	e.Stats = &exec.Stats{}
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	if got := dist(t, e, 1, 3); got != 2 {
		t.Fatalf("dist(1,3) = %d, want 2", got)
	}
	// Insert a shortcut and a new vertex; the index must absorb both
	// without a rebuild (delta below the 64-edge floor).
	if _, err := e.QueryCtx(context.Background(), `INSERT INTO e VALUES (1, 3), (3, 9)`); err != nil {
		t.Fatal(err)
	}
	if got := dist(t, e, 1, 3); got != 1 {
		t.Fatalf("dist(1,3) after shortcut = %d, want 1", got)
	}
	if got := dist(t, e, 1, 9); got != 2 {
		t.Fatalf("dist(1,9) to the new vertex = %d, want 2", got)
	}
	if e.Stats.IndexRefreshes == 0 {
		t.Fatal("expected a delta refresh to be recorded")
	}
	if e.Stats.IndexRebuilds != 0 {
		t.Fatal("small delta must not trigger a rebuild")
	}
	if e.Stats.GraphBuilds != 0 {
		t.Fatal("indexed queries must not rebuild ad hoc graphs")
	}
}

func TestDynamicIndexRebuildThroughSQL(t *testing.T) {
	e := dynEngine(t)
	e.Stats = &exec.Stats{}
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	// Append a long chain: > 64 edges forces a snapshot rebuild.
	for i := 3; i < 90; i++ {
		if _, err := e.QueryCtx(context.Background(), fmt.Sprintf(`INSERT INTO e VALUES (%d, %d)`, i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dist(t, e, 1, 90); got != 89 {
		t.Fatalf("dist(1,90) = %d, want 89", got)
	}
	if e.Stats.IndexRebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", e.Stats.IndexRebuilds)
	}
}

func TestDeleteInvalidatesDynamicIndex(t *testing.T) {
	e := dynEngine(t)
	e.Stats = &exec.Stats{}
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryCtx(context.Background(), `DELETE FROM e WHERE d = 3`); err != nil {
		t.Fatal(err)
	}
	// 1 can no longer reach 3; the query must not use the stale index.
	if got := dist(t, e, 1, 3); got != -1 {
		t.Fatalf("dist(1,3) after delete = %d, want unreachable", got)
	}
	if e.Stats.IndexHits != 0 {
		t.Fatal("deleted-from table must not serve index hits")
	}
}

func TestWeightedQueriesThroughDynamicIndex(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(`
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
	if _, err := e.ExecScript(`
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
