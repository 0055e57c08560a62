package graph

import "graphsql/internal/trace"

// search is the traversal scratch shared by BFS, bidirectional BFS and
// both Dijkstra variants. Instead of clearing O(V) state between
// sources, entries carry an epoch stamp and are considered unset unless
// the stamp matches the current run. A BFS touches only the base arrays
// and its queue; the arrays only Dijkstra or the backward half of a
// bidirectional BFS needs are allocated on their first run. Scratch is
// pooled per graph (CSR.pool), so one lives for many runs and its epoch
// counter can wrap: reset then clears every stamp array once.
type search struct {
	// wanted marks the destinations of the source group being solved.
	wanted []bool
	// dist is the BFS hop count or the integer Dijkstra cost.
	dist []int64
	// parentRow is the edge-table row of the edge that reached the
	// vertex; parentVertex is its source endpoint. -1/NoVertex at the
	// source.
	parentRow    []int32
	parentVertex []VertexID
	// epoch[v] == cur iff v was reached by the current run.
	epoch []uint32
	cur   uint32

	// distF is the float Dijkstra cost.
	distF []float64
	// settledAt[v] == cur iff the current Dijkstra run settled v.
	settledAt []uint32
	queue     []VertexID
	rq        *radixHeap
	bqI       binHeap[int64]
	bqF       binHeap[float64]

	// The backward half of a bidirectional BFS: bepoch[v] == cur iff the
	// backward search reached v, bdist is its hop count to the
	// destination, bqueue its queue.
	bepoch []uint32
	bdist  []int64
	bqueue []VertexID
	// answer[d] is the hop count (-1: unreachable) a search from both
	// ends found for destination d of the group being solved.
	answer []int32

	// What one solve did on this scratch, handed over once its workers
	// finish (Solver.report). When record is set, levels buffers one
	// (level, frontier size, direction) sample per BFS level (level 0
	// is the source or the destination itself). both and forward count
	// the destinations searched from both ends and forward.
	record        bool
	levels        []trace.Level
	both, forward int
	// reached counts the vertices the last bidirectional run reached;
	// pops counts bidirectional dequeues across runs, so a group of
	// many short searches still polls its context.
	reached, pops int
}

func newSearch(n int) *search {
	return &search{
		wanted:       make([]bool, n),
		dist:         make([]int64, n),
		parentRow:    make([]int32, n),
		parentVertex: make([]VertexID, n),
		epoch:        make([]uint32, n),
	}
}

// reset starts a new run at src: it advances the epoch, empties the
// queues and marks src reached at distance zero. The BFS queue is
// allocated by the first BFS, the settled stamps and the radix queue by
// the first Dijkstra run.
func (s *search) reset(src VertexID, dijkstra bool) {
	s.cur++
	if s.cur == 0 { // epoch counter wrapped: do one full clear
		clear(s.epoch)
		clear(s.settledAt)
		clear(s.bepoch)
		s.cur = 1
	}
	if dijkstra {
		if s.settledAt == nil {
			s.settledAt = make([]uint32, len(s.wanted))
			s.rq = newRadixHeap()
		}
		s.rq.reset()
		s.bqI = s.bqI[:0]
		s.bqF = s.bqF[:0]
	} else if s.queue == nil {
		s.queue = make([]VertexID, 0, 1024)
	} else {
		s.queue = s.queue[:0]
	}
	s.visit(src, -1, NoVertex)
	s.dist[src] = 0
}

// resetBackward starts the backward half of a bidirectional run at
// dst, under the epoch the preceding reset advanced. The backward
// arrays are allocated by the first bidirectional run.
func (s *search) resetBackward(dst VertexID) {
	if s.bepoch == nil {
		s.bepoch = make([]uint32, len(s.wanted))
		s.bdist = make([]int64, len(s.wanted))
		s.bqueue = make([]VertexID, 0, 1024)
	}
	s.bepoch[dst] = s.cur
	s.bdist[dst] = 0
	s.bqueue = append(s.bqueue[:0], dst)
}

// mark sets wanted for the destinations of a source group and returns
// how many distinct ones there are; unmark clears them.
func (s *search) mark(group []int, dsts []VertexID) int {
	distinct := 0
	for _, i := range group {
		if d := dsts[i]; !s.wanted[d] {
			s.wanted[d] = true
			distinct++
		}
	}
	return distinct
}

func (s *search) unmark(group []int, dsts []VertexID) {
	for _, i := range group {
		s.wanted[dsts[i]] = false
	}
}

// level records one BFS level sample when the solve asked for them.
func (s *search) level(level int64, size int, backward bool) {
	if s.record {
		s.levels = append(s.levels, trace.Level{Level: level, Size: size, Backward: backward})
	}
}

// floatDist returns the float cost array, allocating it on first use.
func (s *search) floatDist() []float64 {
	if s.distF == nil {
		s.distF = make([]float64, len(s.wanted))
	}
	return s.distF
}

func (s *search) seen(v VertexID) bool { return s.epoch[v] == s.cur }

func (s *search) settled(v VertexID) bool { return s.settledAt[v] == s.cur }

// visit records that v was reached over edge-table row row from
// vertex from; the caller stores its distance.
func (s *search) visit(v VertexID, row int32, from VertexID) {
	s.epoch[v] = s.cur
	s.parentRow[v] = row
	s.parentVertex[v] = from
}

// pathTo reconstructs the path to v as originating edge-table rows, in
// traversal order. The second return value reports whether v was
// reached by the current run: the scratch arrays carry stale values
// from earlier epochs, so the parent chain of an unreached vertex is
// garbage. Callers must treat (nil, false) as unreachable; (nil, true)
// is the empty path at the source. After a Dijkstra run only settled
// vertices carry shortest paths.
func (s *search) pathTo(v VertexID) ([]int32, bool) {
	if !s.seen(v) {
		return nil, false
	}
	hops := 0
	for u := v; s.parentRow[u] >= 0; u = s.parentVertex[u] {
		hops++
	}
	if hops == 0 {
		return nil, true
	}
	out := make([]int32, hops)
	for i := hops - 1; i >= 0; i-- {
		out[i] = s.parentRow[v]
		v = s.parentVertex[v]
	}
	return out, true
}
