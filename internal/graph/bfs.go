package graph

import (
	"context"

	"graphsql/internal/fault"
)

// runBFS explores from src until all wanted vertices are settled or the
// component is exhausted. wanted[v] must be true for destinations of
// interest; wantLeft is their count. delta (optional) supplies edges
// appended after the CSR snapshot. It returns the number of wanted
// vertices actually reached. ctx (optional) is polled every
// cancelCheckInterval dequeues so one huge traversal aborts mid-flight
// rather than running to completion. Each level boundary fires
// fault.PointSolverLevel and records the level.
func (s *search) runBFS(g *CSR, delta *Delta, src VertexID, wanted []bool, wantLeft int, ctx context.Context) (int, error) {
	s.reset(src, false)
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
			s.level(du, len(s.queue)-head, false)
		}
		relax := func(v VertexID, row int32) bool {
			if s.seen(v) {
				return false
			}
			s.visit(v, row, u)
			s.dist[v] = du + 1
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

// runBiBFS answers one pair by searching from both ends: forward from
// src over g, backward from dst over its transpose g.In, and over the
// delta's edges both ways. Each step expands one whole level of the
// side with the smaller frontier (forward on a tie). Whole levels make
// the first vertex seen from both sides lie on a shortest path: while
// forward levels 0..a and backward levels 0..b share no vertex, every
// path is longer than a+b, so the level that meets the other side finds
// a path of exactly a+b+1 hops. Hop counts are unique, so the answer
// equals runBFS's. It returns the hop count and whether dst is
// reachable, and leaves the number of vertices the two sides reached in
// s.reached. No parents are recorded, so pathTo means nothing after
// it. Like runBFS it polls ctx every cancelCheckInterval dequeues
// (counted across the runs on this scratch), fires
// fault.PointSolverLevel per level and records every expanded level
// with its direction.
func (s *search) runBiBFS(g *CSR, delta *Delta, src, dst VertexID, ctx context.Context) (int64, bool, error) {
	s.reset(src, false)
	if src == dst {
		s.reached = 1
		return 0, true, nil
	}
	s.resetBackward(dst)
	fwd := biSide{g: g, epoch: s.epoch, dist: s.dist, queue: append(s.queue, src)}
	bwd := biSide{g: g.In, epoch: s.bepoch, dist: s.bdist, queue: s.bqueue, backward: true}
	if delta != nil {
		fwd.delta, bwd.delta = delta.Adj, delta.In
	}
	// Keep the grown queues for the next run on this scratch. Every
	// vertex a side reached is on its queue.
	defer func() {
		s.queue, s.bqueue = fwd.queue, bwd.queue
		s.reached = len(fwd.queue) + len(bwd.queue)
	}()
	for {
		a, b := &fwd, &bwd
		if b.frontier() < a.frontier() {
			a, b = b, a
		}
		if a.frontier() == 0 {
			// One side's reachable set is exhausted without meeting the
			// other side.
			return 0, false, nil
		}
		if hops, met, err := s.expandLevel(a, b, ctx); met || err != nil {
			return hops, met, err
		}
	}
}

// biSide is one half of a bidirectional BFS: the adjacency it walks
// (out-edges forward, in-edges backward), its epoch stamps and hop
// counts, and its queue, whose tail from lo on is the frontier.
type biSide struct {
	g        *CSR
	delta    map[VertexID][]DeltaEdge
	epoch    []uint32
	dist     []int64
	queue    []VertexID
	lo       int
	backward bool
}

func (b *biSide) frontier() int { return len(b.queue) - b.lo }

// expandLevel expands a's whole frontier by one level, stopping at the
// first vertex b has seen; it then returns the hop count of the path
// through that vertex and true.
func (s *search) expandLevel(a, b *biSide, ctx context.Context) (int64, bool, error) {
	lvl := a.dist[a.queue[a.lo]]
	if err := fault.Inject(fault.PointSolverLevel); err != nil {
		return 0, false, err
	}
	s.level(lvl, a.frontier(), a.backward)
	cur := s.cur
	for end := len(a.queue); a.lo < end; a.lo++ {
		if ctx != nil {
			if s.pops++; s.pops&(cancelCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return 0, false, err
				}
			}
		}
		u := a.queue[a.lo]
		hops := int64(-1)
		step := func(v VertexID) bool {
			if a.epoch[v] == cur {
				return false
			}
			if b.epoch[v] == cur {
				hops = lvl + 1 + b.dist[v]
				return true
			}
			a.epoch[v] = cur
			a.dist[v] = lvl + 1
			a.queue = append(a.queue, v)
			return false
		}
		if int(u) < a.g.N {
			lo, hi := a.g.edgeRange(u)
			for p := lo; p < hi; p++ {
				if step(a.g.Targets[p]) {
					return hops, true, nil
				}
			}
		}
		for _, de := range a.delta[u] {
			if step(de.To) {
				return hops, true, nil
			}
		}
	}
	return 0, false, nil
}
