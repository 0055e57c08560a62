// Package baseline implements the three customary ways of answering
// shortest-path queries in standard SQL that the paper's introduction
// motivates against (§1): recursive expansion (the evaluation strategy
// of a recursive CTE), persistent stored modules (procedural code
// issuing row-at-a-time queries), and an explicit chain of self-joins
// bounded by N. They exist to reproduce the motivation experiment
// (E4): the native REACHES operator wins by orders of magnitude.
//
// All three compute the unweighted shortest-path distance between two
// person ids over an edge table edge(src, dst), returning -1 when the
// destination is unreachable.
package baseline

import (
	"context"
	"fmt"
	"strings"

	"graphsql/internal/engine"
	"graphsql/internal/types"
)

// RecursiveCTE emulates the semi-naive evaluation of
//
//	WITH RECURSIVE reach(id, d) AS (VALUES (src, 0) UNION ...)
//
// by issuing one set-oriented join per BFS level through the engine,
// exactly what a recursive CTE runtime does. maxDepth bounds the
// number of iterations (<= 0 means no bound).
func RecursiveCTE(ctx context.Context, e *engine.Engine, edgeTable, srcCol, dstCol string, src, dst int64, maxDepth int) (int64, error) {
	if src == dst {
		// Mirror REACHES semantics: a vertex trivially reaches itself
		// when it is a vertex of the graph.
		ok, err := isVertex(ctx, e, edgeTable, srcCol, dstCol, src)
		if err != nil {
			return -1, err
		}
		if ok {
			return 0, nil
		}
		return -1, nil
	}
	// visited holds all ids seen so far; frontier the last level.
	_ = e.Catalog().DropTable("__bl_visited")
	_ = e.Catalog().DropTable("__bl_frontier")
	if _, err := e.QueryCtx(ctx, `CREATE TABLE __bl_visited (id BIGINT)`); err != nil {
		return -1, err
	}
	if _, err := e.QueryCtx(ctx, `CREATE TABLE __bl_frontier (id BIGINT)`); err != nil {
		return -1, err
	}
	defer func() {
		_ = e.Catalog().DropTable("__bl_visited")
		_ = e.Catalog().DropTable("__bl_frontier")
	}()
	if _, err := e.QueryCtx(ctx, `INSERT INTO __bl_visited VALUES (?)`, types.NewInt(src)); err != nil {
		return -1, err
	}
	if _, err := e.QueryCtx(ctx, `INSERT INTO __bl_frontier VALUES (?)`, types.NewInt(src)); err != nil {
		return -1, err
	}
	// One set-oriented expansion per BFS level, the semi-naive step of
	// a recursive CTE (new = frontier ⋈ edges minus visited).
	expand := fmt.Sprintf(`
		SELECT DISTINCT e.%s AS id
		FROM __bl_frontier f JOIN %s e ON f.id = e.%s
		EXCEPT
		SELECT id FROM __bl_visited`,
		dstCol, edgeTable, srcCol)

	for depth := 1; maxDepth <= 0 || depth <= maxDepth; depth++ {
		next, err := e.QueryCtx(ctx, expand)
		if err != nil {
			return -1, err
		}
		if next.NumRows() == 0 {
			return -1, nil // fixpoint: unreachable
		}
		found := false
		col := next.Cols[0]
		for i := 0; i < next.NumRows(); i++ {
			if col.Ints[i] == dst {
				found = true
				break
			}
		}
		if found {
			return int64(depth), nil
		}
		// frontier := next; visited += next.
		if _, err := e.QueryCtx(ctx, `DELETE FROM __bl_frontier`); err != nil {
			return -1, err
		}
		ftab, _ := e.Catalog().Table("__bl_frontier")
		vtab, _ := e.Catalog().Table("__bl_visited")
		for i := 0; i < next.NumRows(); i++ {
			ftab.Cols[0].AppendInt(col.Ints[i])
			vtab.Cols[0].AppendInt(col.Ints[i])
		}
	}
	return -1, fmt.Errorf("baseline: depth bound exceeded")
}

// isVertex checks membership of id in srcCol ∪ dstCol.
func isVertex(ctx context.Context, e *engine.Engine, edgeTable, srcCol, dstCol string, id int64) (bool, error) {
	q := fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE %s = ? OR %s = ?`, edgeTable, srcCol, dstCol)
	res, err := e.QueryCtx(ctx, q, types.NewInt(id), types.NewInt(id))
	if err != nil {
		return false, err
	}
	return res.Cols[0].Ints[0] > 0, nil
}

// PSM mimics a persistent stored module: a procedural BFS that keeps
// its queue in application state and performs one point query per
// dequeued vertex — the "interpretation overhead" cost profile of §1.
func PSM(ctx context.Context, e *engine.Engine, edgeTable, srcCol, dstCol string, src, dst int64, maxDepth int) (int64, error) {
	if src == dst {
		ok, err := isVertex(ctx, e, edgeTable, srcCol, dstCol, src)
		if err != nil {
			return -1, err
		}
		if ok {
			return 0, nil
		}
		return -1, nil
	}
	neighbors := fmt.Sprintf(`SELECT %s FROM %s WHERE %s = ?`, dstCol, edgeTable, srcCol)
	type item struct {
		id int64
		d  int64
	}
	visited := map[int64]bool{src: true}
	queue := []item{{src, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth > 0 && cur.d >= int64(maxDepth) {
			continue
		}
		res, err := e.QueryCtx(ctx, neighbors, types.NewInt(cur.id))
		if err != nil {
			return -1, err
		}
		col := res.Cols[0]
		for i := 0; i < res.NumRows(); i++ {
			n := col.Ints[i]
			if visited[n] {
				continue
			}
			if n == dst {
				return cur.d + 1, nil
			}
			visited[n] = true
			queue = append(queue, item{n, cur.d + 1})
		}
	}
	return -1, nil
}

// SelfJoinChain checks for a path of exactly k hops for k = 1..maxHops
// with a k-way self-join, the bounded-iteration folk method of §1. It
// returns the smallest k with a match, or -1 if none exists within the
// bound. Cost grows explosively with k, which is the point of the
// experiment.
func SelfJoinChain(ctx context.Context, e *engine.Engine, edgeTable, srcCol, dstCol string, src, dst int64, maxHops int) (int64, error) {
	if src == dst {
		ok, err := isVertex(ctx, e, edgeTable, srcCol, dstCol, src)
		if err != nil {
			return -1, err
		}
		if ok {
			return 0, nil
		}
		return -1, nil
	}
	for k := 1; k <= maxHops; k++ {
		var b strings.Builder
		fmt.Fprintf(&b, "SELECT COUNT(*) FROM %s e1", edgeTable)
		for i := 2; i <= k; i++ {
			fmt.Fprintf(&b, " JOIN %s e%d ON e%d.%s = e%d.%s", edgeTable, i, i-1, dstCol, i, srcCol)
		}
		fmt.Fprintf(&b, " WHERE e1.%s = ? AND e%d.%s = ?", srcCol, k, dstCol)
		res, err := e.QueryCtx(ctx, b.String(), types.NewInt(src), types.NewInt(dst))
		if err != nil {
			return -1, err
		}
		if res.Cols[0].Ints[0] > 0 {
			return int64(k), nil
		}
	}
	return -1, nil
}

// Native answers the same question with the paper's extension: one
// REACHES + CHEAPEST SUM(1) query.
func Native(ctx context.Context, e *engine.Engine, edgeTable, srcCol, dstCol string, src, dst int64) (int64, error) {
	q := fmt.Sprintf(`SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER %s EDGE (%s, %s)`,
		edgeTable, srcCol, dstCol)
	res, err := e.QueryCtx(ctx, q, types.NewInt(src), types.NewInt(dst))
	if err != nil {
		return -1, err
	}
	if res.NumRows() == 0 {
		return -1, nil
	}
	return res.Cols[0].Ints[0], nil
}
