package graph

import (
	"container/heap"
	"context"
)

// dijkstraState is the shared per-vertex scratch for both Dijkstra
// variants (radix queue for integer weights, binary heap for float
// weights and the forced-heap ablation). Like bfsState it uses epoch
// stamping so per-source runs do not pay an O(V) clear.
type dijkstraState struct {
	distI []int64
	distF []float64
	// parentRow / parentVertex track the relaxed edge as an edge-table
	// row and its source endpoint.
	parentRow    []int32
	parentVertex []VertexID
	settled      []bool
	epoch        []uint32
	cur          uint32

	rq  *radixHeap
	bqI binHeap[int64]
	bqF binHeap[float64]
}

func newDijkstraState(n int) *dijkstraState {
	return &dijkstraState{
		distI:        make([]int64, n),
		distF:        make([]float64, n),
		parentRow:    make([]int32, n),
		parentVertex: make([]VertexID, n),
		settled:      make([]bool, n),
		epoch:        make([]uint32, n),
		rq:           newRadixHeap(),
	}
}

func (s *dijkstraState) reset() {
	s.cur++
	if s.cur == 0 {
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.cur = 1
	}
	s.rq.reset()
	s.bqI = s.bqI[:0]
	s.bqF = s.bqF[:0]
}

func (s *dijkstraState) seen(v VertexID) bool { return s.epoch[v] == s.cur }

func (s *dijkstraState) touch(v VertexID) {
	s.epoch[v] = s.cur
	s.settled[v] = false
}

// runInt runs Dijkstra with the radix queue over integer weights.
// weights is in edge-table row order. delta (optional) supplies edges
// appended after the CSR snapshot. It settles vertices until all
// wanted destinations are settled or the queue empties, returning the
// number of wanted vertices reached. ctx (optional) is polled every
// cancelCheckInterval pops so one huge traversal aborts mid-flight.
func (s *dijkstraState) runInt(g *CSR, delta *Delta, src VertexID, weights []int64, wanted []bool, wantLeft int, ctx context.Context) (int, error) {
	s.reset()
	s.touch(src)
	s.distI[src] = 0
	s.parentRow[src] = -1
	s.parentVertex[src] = NoVertex
	s.rq.push(0, src)
	reached, pops := 0, 0
	for s.rq.len() > 0 {
		if ctx != nil {
			if pops++; pops&(cancelCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return reached, err
				}
			}
		}
		_, u := s.rq.popMin()
		if s.settled[u] {
			continue // stale duplicate entry (lazy deletion)
		}
		s.settled[u] = true
		if wanted[u] {
			reached++
			wantLeft--
			if wantLeft == 0 {
				return reached, nil
			}
		}
		du := s.distI[u]
		relax := func(v VertexID, row int32) {
			nd := du + weights[row]
			if !s.seen(v) {
				s.touch(v)
				s.distI[v] = nd
				s.parentRow[v] = row
				s.parentVertex[v] = u
				s.rq.push(nd, v)
			} else if !s.settled[v] && nd < s.distI[v] {
				s.distI[v] = nd
				s.parentRow[v] = row
				s.parentVertex[v] = u
				s.rq.push(nd, v)
			}
		}
		if int(u) < g.N {
			lo, hi := g.edgeRange(u)
			for p := lo; p < hi; p++ {
				relax(g.Targets[p], g.Perm[p])
			}
		}
		if delta != nil {
			for _, de := range delta.Adj[u] {
				relax(de.To, de.Row)
			}
		}
	}
	return reached, nil
}

// runHeap runs Dijkstra with a binary heap: float weights always take
// it, integer weights only under Spec.ForceBinaryHeap (the radix-queue
// ablation). dist is distI or distF, bq the pooled heap of that type.
func runHeap[W int64 | float64](s *dijkstraState, bq *binHeap[W], dist []W, g *CSR, delta *Delta, src VertexID, weights []W, wanted []bool, wantLeft int, ctx context.Context) (int, error) {
	s.reset()
	s.touch(src)
	dist[src] = 0
	s.parentRow[src] = -1
	s.parentVertex[src] = NoVertex
	heap.Push(bq, heapItem[W]{0, src})
	reached, pops := 0, 0
	for bq.Len() > 0 {
		if ctx != nil {
			if pops++; pops&(cancelCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return reached, err
				}
			}
		}
		u := heap.Pop(bq).(heapItem[W]).v
		if s.settled[u] {
			continue
		}
		s.settled[u] = true
		if wanted[u] {
			reached++
			wantLeft--
			if wantLeft == 0 {
				return reached, nil
			}
		}
		du := dist[u]
		relax := func(v VertexID, row int32) {
			nd := du + weights[row]
			if !s.seen(v) {
				s.touch(v)
				dist[v] = nd
				s.parentRow[v] = row
				s.parentVertex[v] = u
				heap.Push(bq, heapItem[W]{nd, v})
			} else if !s.settled[v] && nd < dist[v] {
				dist[v] = nd
				s.parentRow[v] = row
				s.parentVertex[v] = u
				heap.Push(bq, heapItem[W]{nd, v})
			}
		}
		if int(u) < g.N {
			lo, hi := g.edgeRange(u)
			for p := lo; p < hi; p++ {
				relax(g.Targets[p], g.Perm[p])
			}
		}
		if delta != nil {
			for _, de := range delta.Adj[u] {
				relax(de.To, de.Row)
			}
		}
	}
	return reached, nil
}

// pathTo reconstructs the shortest path to v as edge-table rows. The
// second return value reports whether v was settled by the current run;
// the scratch arrays carry stale values from earlier epochs, so the
// parent chain of an unsettled vertex is garbage.
func (s *dijkstraState) pathTo(v VertexID) ([]int32, bool) {
	if !s.seen(v) || !s.settled[v] {
		return nil, false
	}
	var rev []int32
	for s.parentRow[v] >= 0 {
		rev = append(rev, s.parentRow[v])
		v = s.parentVertex[v]
	}
	// Reverse into traversal order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// ownerOf returns the source vertex owning CSR position p; used by
// tests to validate the CSR layout.
func ownerOf(g *CSR, p int64) VertexID {
	lo, hi := 0, g.N
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Offsets[mid+1] <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return VertexID(lo)
}

// binHeap is a container/heap binary heap of (dist, vertex) pairs.
type binHeap[W int64 | float64] []heapItem[W]

type heapItem[W int64 | float64] struct {
	d W
	v VertexID
}

func (q binHeap[W]) Len() int            { return len(q) }
func (q binHeap[W]) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q binHeap[W]) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *binHeap[W]) Push(x interface{}) { *q = append(*q, x.(heapItem[W])) }
func (q *binHeap[W]) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
