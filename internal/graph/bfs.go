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
// fault.PointSolverLevel and reports the level to onLevel.
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
			if s.onLevel != nil {
				s.onLevel(du, len(s.queue)-head)
			}
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
