package core

import (
	"context"
	"fmt"
	"sync"

	"graphsql/internal/expr"
	"graphsql/internal/graph"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
)

// DynamicGraph is an updatable graph index: a CSR snapshot plus a
// delta of edges appended since the snapshot. It answers the open
// problem of the paper's §6 — graph indices must be "amenable to the
// updates on the underlying tables" even though the CSR itself is
// immutable. Appended rows are absorbed in O(new edges); once the
// delta outgrows rebuildFraction of the snapshot the whole index is
// rebuilt. Every snapshot carries the transpose of its CSR, and the
// delta keeps appended edges both ways, so single-pair queries over the
// index search from both ends.
//
// Restrictions: the underlying table must be append-only between
// refreshes (DELETE and DROP invalidate the index entirely, handled by
// the engine).
type DynamicGraph struct {
	// mu makes the index safe for concurrent readers with occasional
	// refreshes: MatchCtx and the accessors take the read lock, RefreshCtx
	// upgrades to the write lock only when there are rows to absorb.
	// The caller must still serialize refreshes against table writes
	// (the facade's RWMutex does).
	mu sync.RWMutex
	pg *PreparedGraph
	// delta holds edges of rows appended after the snapshot; nil when
	// the index is exactly the snapshot.
	delta *graph.Delta
	// appliedRows counts the source-table rows already reflected
	// (snapshot + delta).
	appliedRows int
}

// rebuildFraction triggers a snapshot rebuild once
// delta edges > rebuildFraction × snapshot edges.
const rebuildFraction = 0.25

// NewDynamicGraphP builds the initial snapshot, transpose included,
// from the table chunk. The parallelism is inherited by snapshot
// rebuilds and solvers (<= 0 means one worker per CPU).
func NewDynamicGraphP(edges *storage.Chunk, srcIdx, dstIdx, parallelism int) (*DynamicGraph, error) {
	//gsqlvet:allow ctxprop index builds run outside any request (engine.BuildGraphIndex carries no context)
	pg, err := buildGraph(context.Background(), edges, srcIdx, dstIdx, parallelism, true)
	if err != nil {
		return nil, err
	}
	return &DynamicGraph{pg: pg, appliedRows: edges.NumRows()}, nil
}

// AppliedRows reports how many source-table rows the index reflects.
func (dg *DynamicGraph) AppliedRows() int {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	return dg.appliedRows
}

// DictForm reports the form ("dense" or "hash") of the snapshot's
// vertex dictionary.
func (dg *DynamicGraph) DictForm() string {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	return dg.pg.Dict.Form()
}

// deltaEdgesLocked reports the number of edges currently in the
// delta; the caller holds mu.
func (dg *DynamicGraph) deltaEdgesLocked() int {
	if dg.delta == nil {
		return 0
	}
	return dg.delta.Edges
}

// rebuildThreshold returns the delta size that triggers a rebuild.
func (dg *DynamicGraph) rebuildThreshold() int {
	t := int(rebuildFraction * float64(dg.pg.NumEdges()))
	if t < 64 {
		t = 64 // tiny graphs: don't rebuild on every insert
	}
	return t
}

// RefreshCtx absorbs rows appended to the table chunk since the last
// refresh. It must be called with the full current chunk of the same
// table the index was built on; rows before appliedRows are assumed
// unchanged (append-only contract). Returns whether a full rebuild
// happened. A snapshot rebuild triggered by delta growth runs the full
// graph construction, and the ctx is threaded through its
// dictionary-encode pass and CSR chunk loops so a canceled query does
// not pin the write lock for the whole rebuild. On cancellation the
// index is left unchanged.
func (dg *DynamicGraph) RefreshCtx(ctx context.Context, current *storage.Chunk) (rebuilt bool, err error) {
	n := current.NumRows()
	// Fast path: nothing to absorb. Taken under the read lock so
	// concurrent queries over an unchanged table never serialize.
	dg.mu.RLock()
	upToDate := n == dg.appliedRows
	dg.mu.RUnlock()
	if upToDate {
		return false, nil
	}
	dg.mu.Lock()
	defer dg.mu.Unlock()
	switch {
	case n < dg.appliedRows:
		return false, fmt.Errorf("graph index: table shrank from %d to %d rows (append-only contract violated)", dg.appliedRows, n)
	case n == dg.appliedRows:
		return false, nil
	}
	newEdges := n - dg.appliedRows
	if dg.deltaEdgesLocked()+newEdges > dg.rebuildThreshold() {
		pg, err := buildGraph(ctx, current, dg.pg.SrcIdx, dg.pg.DstIdx, dg.pg.Parallelism, true)
		if err != nil {
			return false, err
		}
		dg.pg = pg
		dg.delta = nil
		dg.appliedRows = n
		return true, nil
	}
	if dg.delta == nil {
		dg.delta = graph.NewDelta(dg.pg.NumVertices())
	}
	// The snapshot's Edges chunk must stay row-aligned with the CSR
	// Perm and the delta rows; append the new rows (skipping NULL
	// endpoints exactly like BuildGraphCtx does).
	sc, dc := current.Cols[dg.pg.SrcIdx], current.Cols[dg.pg.DstIdx]
	if sc.Kind != dg.pg.KeyKind {
		return false, fmt.Errorf("graph index: key kind changed from %v to %v", dg.pg.KeyKind, sc.Kind)
	}
	// dg.appliedRows is the snapshot's table row count; when the edge
	// chunk aliases the live table columns it already "sees" the
	// appended rows, so the private copy must stop at the snapshot.
	ownEdgesChunk(dg.pg, dg.appliedRows)
	for row := dg.appliedRows; row < n; row++ {
		if sc.IsNull(row) || dc.IsNull(row) {
			continue
		}
		var s, d graph.VertexID
		if stringKeyed(dg.pg.KeyKind) {
			s = dg.pg.Dict.EncodeString(sc.Strs[row])
			d = dg.pg.Dict.EncodeString(dc.Strs[row])
		} else {
			s = dg.pg.Dict.EncodeInt(sc.Ints[row])
			d = dg.pg.Dict.EncodeInt(dc.Ints[row])
		}
		// The edge's row id inside the index's own edge chunk.
		deltaRow := int32(dg.pg.Edges.NumRows())
		for c := range current.Cols {
			dg.pg.Edges.Cols[c].Append(current.Cols[c].Get(row))
		}
		dg.delta.Add(s, d, deltaRow)
	}
	if dg.pg.Dict.Len() > dg.delta.N {
		dg.delta.N = dg.pg.Dict.Len()
	}
	dg.appliedRows = n
	return false, nil
}

// ownEdgesChunk makes the prepared graph's edge chunk privately
// writable, copying exactly the snapshot rows. BuildGraphCtx aliases the
// table columns when no NULL compaction happened; before appending
// delta rows we must copy, or the base table would be corrupted (and
// rows appended to the table since the snapshot would be duplicated).
func ownEdgesChunk(pg *PreparedGraph, snapshotRows int) {
	if pg.edgesOwned {
		return
	}
	if snapshotRows > pg.Edges.NumRows() {
		snapshotRows = pg.Edges.NumRows()
	}
	rows := make([]int, snapshotRows)
	for i := range rows {
		rows[i] = i
	}
	pg.Edges = pg.Edges.Gather(rows, 1)
	pg.edgesOwned = true
}

// MatchCtx runs a GraphMatch through the dynamic index
// (snapshot+delta). The read lock is held for the duration of the
// solve, so a concurrent refresh waits for in-flight matches instead
// of mutating the snapshot under them.
func (dg *DynamicGraph) MatchCtx(stdctx context.Context, gm *plan.GraphMatch, input *storage.Chunk, xCol, yCol *storage.Column, ctx *expr.Context) (*storage.Chunk, error) {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	return dg.pg.match(stdctx, gm, input, xCol, yCol, ctx, dg.delta)
}
