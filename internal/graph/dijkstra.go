package graph

import (
	"container/heap"
	"context"
)

// runInt runs Dijkstra with the radix queue over integer weights.
// weights is in edge-table row order. delta (optional) supplies edges
// appended after the CSR snapshot. It settles vertices until all
// wanted destinations are settled or the queue empties, returning the
// number of wanted vertices reached. ctx (optional) is polled every
// cancelCheckInterval pops so one huge traversal aborts mid-flight.
func (s *search) runInt(g *CSR, delta *Delta, src VertexID, weights []int64, wanted []bool, wantLeft int, ctx context.Context) (int, error) {
	s.reset(src, true)
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
		if s.settled(u) {
			continue // stale duplicate entry (lazy deletion)
		}
		s.settledAt[u] = s.cur
		if wanted[u] {
			reached++
			wantLeft--
			if wantLeft == 0 {
				return reached, nil
			}
		}
		du := s.dist[u]
		relax := func(v VertexID, row int32) {
			nd := du + weights[row]
			if !s.seen(v) || !s.settled(v) && nd < s.dist[v] {
				s.visit(v, row, u)
				s.dist[v] = nd
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
// ablation). dist is s.dist or s.floatDist(), bq the pooled heap of
// that type.
func runHeap[W int64 | float64](s *search, bq *binHeap[W], dist []W, g *CSR, delta *Delta, src VertexID, weights []W, wanted []bool, wantLeft int, ctx context.Context) (int, error) {
	s.reset(src, true)
	dist[src] = 0
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
		if s.settled(u) {
			continue
		}
		s.settledAt[u] = s.cur
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
			if !s.seen(v) || !s.settled(v) && nd < dist[v] {
				s.visit(v, row, u)
				dist[v] = nd
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
