package graph

import (
	"context"

	"graphsql/internal/fault"
)

// bfsState holds per-vertex scratch reused across BFS runs. Instead of
// clearing O(V) state between sources, entries carry an epoch stamp and
// are considered unset unless the stamp matches the current run.
type bfsState struct {
	dist []int64
	// parentRow is the edge-table row of the edge that discovered the
	// vertex; parentVertex is its source endpoint. -1/NoVertex at the
	// BFS root.
	parentRow    []int32
	parentVertex []VertexID
	epoch        []uint32
	cur          uint32
	queue        []VertexID
	// onLevel, when non-nil, receives one (level, frontier size) sample
	// per BFS level (level 0 is the source itself). Set per traversal
	// from Solver.OnLevel; nil costs one pointer check per level.
	onLevel func(level int64, size int)
}

func newBFSState(n int) *bfsState {
	return &bfsState{
		dist:         make([]int64, n),
		parentRow:    make([]int32, n),
		parentVertex: make([]VertexID, n),
		epoch:        make([]uint32, n),
		queue:        make([]VertexID, 0, 1024),
	}
}

func (s *bfsState) reset() {
	s.cur++
	if s.cur == 0 { // epoch counter wrapped: do one full clear
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.cur = 1
	}
	s.queue = s.queue[:0]
}

func (s *bfsState) visited(v VertexID) bool { return s.epoch[v] == s.cur }

func (s *bfsState) visit(v VertexID, dist int64, row int32, from VertexID) {
	s.epoch[v] = s.cur
	s.dist[v] = dist
	s.parentRow[v] = row
	s.parentVertex[v] = from
}

// runBFS explores from src until all wanted vertices are settled or the
// component is exhausted. wanted[v] must be true for destinations of
// interest; wantLeft is their count. delta (optional) supplies edges
// appended after the CSR snapshot. It returns the number of wanted
// vertices actually reached. ctx (optional) is polled every
// cancelCheckInterval dequeues so one huge traversal aborts mid-flight
// rather than running to completion. Each level boundary fires
// fault.PointSolverLevel and reports the level to onLevel.
func (s *bfsState) runBFS(g *CSR, delta *Delta, src VertexID, wanted []bool, wantLeft int, ctx context.Context) (int, error) {
	s.reset()
	s.visit(src, 0, -1, NoVertex)
	reached := 0
	if wanted[src] {
		reached++
		wantLeft--
		if wantLeft == 0 {
			return reached, nil
		}
	}
	s.queue = append(s.queue, src)
	lvl := int64(-1)
	for head := 0; head < len(s.queue); head++ {
		if ctx != nil && head&(cancelCheckInterval-1) == cancelCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return reached, err
			}
		}
		u := s.queue[head]
		du := s.dist[u]
		if du != lvl {
			// The queue pops vertices in non-decreasing dist order, so
			// the first pop of a new dist is a level boundary: every
			// vertex of level du is queued and none of level du+1 yet.
			lvl = du
			if err := fault.Inject(fault.PointSolverLevel); err != nil {
				return reached, err
			}
			if s.onLevel != nil {
				s.onLevel(du, len(s.queue)-head)
			}
		}
		relax := func(v VertexID, row int32) bool {
			if s.visited(v) {
				return false
			}
			s.visit(v, du+1, row, u)
			if wanted[v] {
				reached++
				wantLeft--
				if wantLeft == 0 {
					return true
				}
			}
			s.queue = append(s.queue, v)
			return false
		}
		if int(u) < g.N {
			lo, hi := g.edgeRange(u)
			for p := lo; p < hi; p++ {
				if relax(g.Targets[p], g.Perm[p]) {
					return reached, nil
				}
			}
		}
		if delta != nil {
			for _, de := range delta.Adj[u] {
				if relax(de.To, de.Row) {
					return reached, nil
				}
			}
		}
	}
	return reached, nil
}

// pathTo reconstructs the path to v as originating edge-table rows, in
// traversal order. The second return value reports whether v was
// reached by the current run: the scratch arrays carry stale values
// from earlier epochs, so reading dist/parentRow of an unvisited vertex
// would yield a garbage path. Callers must treat (nil, false) as
// unreachable; (nil, true) is the empty path at the source.
func (s *bfsState) pathTo(v VertexID) ([]int32, bool) {
	if !s.visited(v) {
		return nil, false
	}
	hops := s.dist[v]
	if hops == 0 {
		return nil, true
	}
	out := make([]int32, hops)
	i := hops - 1
	for s.parentRow[v] >= 0 {
		out[i] = s.parentRow[v]
		i--
		v = s.parentVertex[v]
	}
	return out, true
}
