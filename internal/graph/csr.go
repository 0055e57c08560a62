// Package graph is the shortest-path runtime of the engine. It mirrors
// the external library of the paper's prototype (§3.2): vertices are
// dictionary-encoded into the dense domain H = {0..|V|-1}, the edge
// list is converted into a Compressed Sparse Row representation, and
// shortest paths are computed with BFS (unweighted), Dijkstra with a
// radix queue (integer weights) or Dijkstra with a binary heap (float
// weights), batched over many source/destination pairs.
//
// The dictionary encode is one sequential pass (encode.go): int keys
// whose span is small against the key count index a dense table,
// other keys a hash map. The two phases after it each have one core,
// written against a worker count (see parallel.go): the chunked CSR
// build (this file) and the solver, whose traversals share one
// epoch-stamped search scratch (search.go). A size gate only picks how
// many workers run a core.
//
// A graph index (core.DynamicGraph) also carries the transpose of its
// CSR, built by the same core with the endpoints swapped. Over it the
// solver answers a source group with one destination and no path by
// searching from both ends (runBiBFS); ad hoc graphs, built for one
// query, carry no transpose and always search forward. Search scratch
// belongs to the graph: each CSR pools the scratch its solves return.
package graph

import (
	"context"
	"fmt"
	"sync"

	"graphsql/internal/fault"
	"graphsql/internal/par"
)

// VertexID is a dense vertex identifier in H = {0..N-1}.
type VertexID = int32

// NoVertex marks an absent vertex or parent.
const NoVertex VertexID = -1

// CSR is a Compressed Sparse Row adjacency structure. Offsets has
// length N+1; the outgoing edges of vertex v occupy CSR positions
// Offsets[v]..Offsets[v+1]-1 (the prefix-sum addressing of §3.2).
type CSR struct {
	// N is the number of vertices.
	N int
	// Offsets is the prefix-sum over out-degrees, length N+1.
	Offsets []int64
	// Targets holds the destination vertex per CSR position.
	Targets []VertexID
	// Perm maps a CSR position back to the originating edge-table row,
	// so per-query weight vectors (in edge-table order) can be
	// addressed without re-scattering, and paths can be reconstructed
	// as edge-table row references (§3.3).
	Perm []int32
	// In is the transpose (see BuildTransposeCtx): In.Offsets and
	// In.Targets list every vertex's in-edge sources. In.Perm is nil,
	// because the backward half of a search never rebuilds a path. Only
	// graph indices carry a transpose; it is nil on ad hoc graphs.
	In *CSR

	// pool holds idle search scratch for solves over this graph (see
	// Solver.Solve).
	pool sync.Pool
}

// NumEdges returns the edge count.
func (g *CSR) NumEdges() int { return len(g.Targets) }

// edgeRange returns the CSR positions [lo, hi) of v's outgoing edges.
func (g *CSR) edgeRange(v VertexID) (int64, int64) {
	return g.Offsets[v], g.Offsets[v+1]
}

// BuildCSRParallelCtx builds the CSR from parallel source/destination
// arrays of dense vertex ids; n is the vertex count. Entries with src
// or dst outside [0, n) are rejected: the error names the first
// out-of-range source row, else the first out-of-range destination
// row. The chunked core runs on as many workers as the size gate
// grants, and its output is bit-identical at every worker count. The
// context is polled every cancelCheckInterval rows inside the
// degree-count and scatter loops, so a cancel landing during graph
// construction aborts within a few thousand rows.
func BuildCSRParallelCtx(ctx context.Context, n int, src, dst []VertexID, parallelism int) (*CSR, error) {
	workers := par.Gated(parallelism, len(src), minParallelCSREdges)
	// Keep every chunk large enough that the per-chunk count arrays
	// (workers × n) and goroutine startup stay noise.
	if maxW := len(src) / (minParallelCSREdges / 4); workers > maxW {
		workers = max(maxW, 1)
	}
	return buildCSR(ctx, n, src, dst, workers)
}

// BuildTransposeCtx builds the transpose of the CSR that
// BuildCSRParallelCtx builds from the same arguments: the same core with
// the endpoints swapped, and no Perm. The transpose's rows of one vertex
// are its in-edges in row order.
func BuildTransposeCtx(ctx context.Context, n int, src, dst []VertexID, parallelism int) (*CSR, error) {
	t, err := BuildCSRParallelCtx(ctx, n, dst, src, parallelism)
	if err != nil {
		return nil, err
	}
	t.Perm = nil
	return t, nil
}

// buildCSR is the CSR core: one contiguous row range per worker counts
// degrees, a sequential prefix sum reserves every range its slots in
// row order, and each range scatters into its own slots. Edges of one
// vertex therefore keep their row order (the CSR is the edge rows
// stably ordered by source), whatever the worker count or scheduling.
func buildCSR(ctx context.Context, n int, src, dst []VertexID, workers int) (*CSR, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch: %d vs %d", len(src), len(dst))
	}
	m := len(src)
	cp := &cancelPoller{ctx: ctx}
	// Phase 1: per-range degree counting and range validation. ferr
	// collects per-range injected faults (one slot per worker, disjoint
	// writes); the first one, in range order, wins.
	counts := make([][]int32, workers)
	badSrc := make([]int, workers)
	badDst := make([]int, workers)
	ferr := make([]error, workers)
	for w := range badSrc {
		badSrc[w], badDst[w] = -1, -1
	}
	par.Ranges(workers, m, func(w, lo, hi int) {
		if err := fault.Inject(fault.PointGraphBuildChunk); err != nil {
			ferr[w] = err
			return
		}
		cnt := make([]int32, n)
		for row := lo; row < hi; row++ {
			if row&(cancelCheckInterval-1) == 0 && cp.poll() {
				return
			}
			if d := dst[row]; (d < 0 || int(d) >= n) && badDst[w] < 0 {
				badDst[w] = row
			}
			s := src[row]
			if s < 0 || int(s) >= n {
				if badSrc[w] < 0 {
					badSrc[w] = row
				}
				continue
			}
			cnt[s]++
		}
		counts[w] = cnt
	})
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	if err := firstError(ferr); err != nil {
		return nil, err
	}
	// Ranges are in row order, so the first range reporting a bad row
	// holds the first bad row overall.
	for _, row := range badSrc {
		if row >= 0 {
			return nil, fmt.Errorf("graph: source id %d out of range [0,%d)", src[row], n)
		}
	}
	for _, row := range badDst {
		if row >= 0 {
			return nil, fmt.Errorf("graph: destination id %d out of range [0,%d)", dst[row], n)
		}
	}
	// Phase 2 (sequential): prefix-sum the offsets while turning each
	// range's count into its absolute scatter cursor. Range w's slots
	// for vertex v start after the slots of ranges < w, which keeps the
	// row order within every vertex. Cursors fit int32 because Perm
	// does.
	offsets := make([]int64, n+1)
	pos := int64(0)
	for v := 0; v < n; v++ {
		if v&(cancelCheckInterval-1) == 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		offsets[v] = pos
		for _, cnt := range counts {
			if cnt == nil { // a range the row count left empty
				continue
			}
			c := cnt[v]
			cnt[v] = int32(pos)
			pos += int64(c)
		}
	}
	offsets[n] = pos
	// Phase 3: scatter, each range into its reserved slots.
	targets := make([]VertexID, m)
	perm := make([]int32, m)
	par.Ranges(workers, m, func(w, lo, hi int) {
		// ferr slots are all nil here (a phase-1 fault returned early),
		// so the scatter phase reuses them.
		if err := fault.Inject(fault.PointGraphBuildChunk); err != nil {
			ferr[w] = err
			return
		}
		cur := counts[w]
		for row := lo; row < hi; row++ {
			if row&(cancelCheckInterval-1) == 0 && cp.poll() {
				return
			}
			p := cur[src[row]]
			cur[src[row]]++
			targets[p] = dst[row]
			perm[p] = int32(row)
		}
	})
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	if err := firstError(ferr); err != nil {
		return nil, err
	}
	return &CSR{N: n, Offsets: offsets, Targets: targets, Perm: perm}, nil
}
