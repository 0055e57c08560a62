// Package graph is the shortest-path runtime of the engine. It mirrors
// the external library of the paper's prototype (§3.2): vertices are
// dictionary-encoded into the dense domain H = {0..|V|-1}, the edge
// list is converted into a Compressed Sparse Row representation, and
// shortest paths are computed with BFS (unweighted), Dijkstra with a
// radix queue (integer weights) or Dijkstra with a binary heap (float
// weights), batched over many source/destination pairs.
package graph

import (
	"context"
	"fmt"

	"graphsql/internal/fault"
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
}

// NumEdges returns the edge count.
func (g *CSR) NumEdges() int { return len(g.Targets) }

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v VertexID) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the slice of CSR positions for v's outgoing edges.
func (g *CSR) edgeRange(v VertexID) (int64, int64) {
	return g.Offsets[v], g.Offsets[v+1]
}

// buildCSRSeq constructs the CSR sequentially from parallel
// source/destination arrays of dense vertex ids. n is the vertex count.
// Entries with src or dst outside [0, n) are rejected. The optional
// cancellation context is polled every cancelCheckInterval rows in each
// pass.
func buildCSRSeq(ctx context.Context, n int, src, dst []VertexID) (*CSR, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch: %d vs %d", len(src), len(dst))
	}
	if err := fault.Inject(fault.PointGraphBuildChunk); err != nil {
		return nil, err
	}
	m := len(src)
	offsets := make([]int64, n+1)
	for row, s := range src {
		if row&(cancelCheckInterval-1) == 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("graph: source id %d out of range [0,%d)", s, n)
		}
		offsets[s+1]++
	}
	for row, d := range dst {
		if row&(cancelCheckInterval-1) == 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		if d < 0 || int(d) >= n {
			return nil, fmt.Errorf("graph: destination id %d out of range [0,%d)", d, n)
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]VertexID, m)
	perm := make([]int32, m)
	// cursor tracks the next free slot per vertex while scattering.
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for row := 0; row < m; row++ {
		if row&(cancelCheckInterval-1) == 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		s := src[row]
		pos := cursor[s]
		cursor[s]++
		targets[pos] = dst[row]
		perm[pos] = int32(row)
	}
	return &CSR{N: n, Offsets: offsets, Targets: targets, Perm: perm}, nil
}

// BuildCSRParallelCtx builds the CSR with chunked parallel degree
// counting and scattering. The layout is identical to the sequential
// builder's: each chunk scatters into slots reserved in row order, so
// CSR positions (and Perm) come out bit-identical regardless of
// scheduling. Inputs below the size threshold fall back to the
// sequential builder. The context is polled every cancelCheckInterval
// rows inside the degree-count and scatter loops (and the sequential
// fallback), so a cancel landing during graph construction aborts
// within a few thousand rows.
func BuildCSRParallelCtx(ctx context.Context, n int, src, dst []VertexID, parallelism int) (*CSR, error) {
	workers := resolveWorkers(parallelism)
	// Keep every chunk large enough that the per-chunk count arrays
	// (workers × n) and goroutine startup stay noise.
	if maxW := len(src) / (minParallelCSREdges / 4); workers > maxW {
		workers = maxW
	}
	if workers <= 1 || len(src) < minParallelCSREdges {
		return buildCSRSeq(ctx, n, src, dst)
	}
	return buildCSRParallel(ctx, n, src, dst, workers)
}

// buildCSRParallel is the parallel builder proper; tests call it
// directly to exercise the chunked path on small inputs.
func buildCSRParallel(ctx context.Context, n int, src, dst []VertexID, workers int) (*CSR, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch: %d vs %d", len(src), len(dst))
	}
	m := len(src)
	cp := &cancelPoller{ctx: ctx}
	// Phase 1: per-chunk degree counting and range validation. ferr
	// collects per-chunk injected faults (one slot per worker, disjoint
	// writes); the first one, in chunk order, wins.
	counts := make([][]int32, workers)
	badSrc := make([]int, workers)
	badDst := make([]int, workers)
	ferr := make([]error, workers)
	for w := range badSrc {
		badSrc[w], badDst[w] = -1, -1
	}
	runRanges(workers, m, func(w, lo, hi int) {
		if err := fault.Inject(fault.PointGraphBuildChunk); err != nil {
			ferr[w] = err
			return
		}
		cnt := make([]int32, n)
		badS, badD := -1, -1
		for row := lo; row < hi; row++ {
			if row&(cancelCheckInterval-1) == 0 && cp.poll() {
				return
			}
			s := src[row]
			if s < 0 || int(s) >= n {
				if badS < 0 {
					badS = row
				}
				continue
			}
			cnt[s]++
		}
		for row := lo; row < hi; row++ {
			if d := dst[row]; d < 0 || int(d) >= n {
				badD = row
				break
			}
		}
		counts[w], badSrc[w], badDst[w] = cnt, badS, badD
	})
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	for _, err := range ferr {
		if err != nil {
			return nil, err
		}
	}
	// Report the same error the sequential builder would: the first
	// out-of-range source anywhere, else the first bad destination.
	firstBad := func(bad []int) int {
		first := -1
		for _, row := range bad {
			if row >= 0 && (first < 0 || row < first) {
				first = row
			}
		}
		return first
	}
	if row := firstBad(badSrc); row >= 0 {
		return nil, fmt.Errorf("graph: source id %d out of range [0,%d)", src[row], n)
	}
	if row := firstBad(badDst); row >= 0 {
		return nil, fmt.Errorf("graph: destination id %d out of range [0,%d)", dst[row], n)
	}
	// Phase 2 (sequential): prefix-sum the offsets while turning each
	// chunk's count into its absolute scatter cursor. Chunk w's slots
	// for vertex v start after the slots of chunks < w, which preserves
	// the sequential row order within every vertex. Cursors fit int32
	// because Perm does.
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
			if cnt == nil {
				continue
			}
			c := cnt[v]
			cnt[v] = int32(pos)
			pos += int64(c)
		}
	}
	offsets[n] = pos
	// Phase 3: parallel scatter, each chunk into its reserved slots.
	targets := make([]VertexID, m)
	perm := make([]int32, m)
	runRanges(workers, m, func(w, lo, hi int) {
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
	for _, err := range ferr {
		if err != nil {
			return nil, err
		}
	}
	return &CSR{N: n, Offsets: offsets, Targets: targets, Perm: perm}, nil
}
