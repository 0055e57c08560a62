package main

// The oracle answers the benchmark's queries from the generated
// dataset with textbook algorithms over a plain adjacency list. It
// shares no code with internal/graph (no dictionary, no CSR, no radix
// queue), so agreement between the two is evidence, not tautology.

import (
	"container/heap"
	"sort"
)

type arc struct {
	to int32
	w  int64
}

type oracle struct {
	index map[int64]int32 // vertex key -> dense index
	adj   [][]arc
	// comp is a union-find forest over the edges taken as undirected.
	comp []int32
	// BFS/Dijkstra scratch, reset lazily by stamping.
	dist  []int64
	stamp []uint32
	epoch uint32
	queue []int32
}

// newOracle builds the adjacency list of a directed multigraph. Only
// keys that occur as an edge endpoint are vertices, matching the
// engine's rule that a key absent from the edge table reaches nothing,
// not even itself.
func newOracle(src, dst, weight []int64) *oracle {
	o := &oracle{index: make(map[int64]int32)}
	id := func(k int64) int32 {
		i, ok := o.index[k]
		if !ok {
			i = int32(len(o.adj))
			o.index[k] = i
			o.adj = append(o.adj, nil)
		}
		return i
	}
	for i := range src {
		s, d := id(src[i]), id(dst[i])
		o.adj[s] = append(o.adj[s], arc{to: d, w: weight[i]})
	}
	o.dist = make([]int64, len(o.adj))
	o.stamp = make([]uint32, len(o.adj))
	o.comp = make([]int32, len(o.adj))
	for v := range o.comp {
		o.comp[v] = int32(v)
	}
	for s, arcs := range o.adj {
		for _, a := range arcs {
			if rs, rd := o.find(int32(s)), o.find(a.to); rs != rd {
				o.comp[rs] = rd
			}
		}
	}
	return o
}

func (o *oracle) find(v int32) int32 {
	for o.comp[v] != v {
		o.comp[v] = o.comp[o.comp[v]] // path halving
		v = o.comp[v]
	}
	return v
}

// connected reports whether src and dst lie in one weakly connected
// component. When every edge is stored in both directions, as ldbc
// stores friendships, this is exactly reachability, and it answers the
// tens of thousands of pairs of the batch workload without a BFS each.
func (o *oracle) connected(src, dst int64) bool {
	s, okS := o.index[src]
	d, okD := o.index[dst]
	return okS && okD && o.find(s) == o.find(d)
}

func (o *oracle) seen(v int32) bool { return o.stamp[v] == o.epoch }

func (o *oracle) visit(v int32, d int64) {
	o.stamp[v] = o.epoch
	o.dist[v] = d
}

// hops returns the unweighted shortest-path length from src to dst.
func (o *oracle) hops(src, dst int64) (int64, bool) {
	s, okS := o.index[src]
	d, okD := o.index[dst]
	if !okS || !okD {
		return 0, false
	}
	o.epoch++
	o.visit(s, 0)
	o.queue = append(o.queue[:0], s)
	for head := 0; head < len(o.queue); head++ {
		v := o.queue[head]
		if v == d {
			return o.dist[v], true
		}
		for _, a := range o.adj[v] {
			if !o.seen(a.to) {
				o.visit(a.to, o.dist[v]+1)
				o.queue = append(o.queue, a.to)
			}
		}
	}
	return 0, false
}

type heapItem struct {
	v int32
	d int64
}

type minHeap []heapItem

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *minHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// cost returns the cheapest sum of edge weights from src to dst
// (lazy-deletion Dijkstra on a binary heap).
func (o *oracle) cost(src, dst int64) (int64, bool) {
	s, okS := o.index[src]
	d, okD := o.index[dst]
	if !okS || !okD {
		return 0, false
	}
	o.epoch++
	o.visit(s, 0)
	h := &minHeap{{v: s, d: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d > o.dist[it.v] {
			continue
		}
		if it.v == d {
			return it.d, true
		}
		for _, a := range o.adj[it.v] {
			nd := it.d + a.w
			if !o.seen(a.to) || nd < o.dist[a.to] {
				o.visit(a.to, nd)
				heap.Push(h, heapItem{v: a.to, d: nd})
			}
		}
	}
	return 0, false
}

// hasEdge reports whether a src->dst edge of weight w exists.
func (o *oracle) hasEdge(src, dst, w int64) bool {
	s, okS := o.index[src]
	d, okD := o.index[dst]
	if !okS || !okD {
		return false
	}
	for _, a := range o.adj[s] {
		if a.to == d && a.w == w {
			return true
		}
	}
	return false
}

// countAbove returns how many of the ascending-sorted values exceed t.
func countAbove(sorted []float64, t float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > t })
}
