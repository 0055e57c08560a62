package graph

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestBFSPathToUnreached is the regression test for the stale-scratch
// bug: pathTo on a vertex the current run never visited used to read
// dist/parentRow from an earlier epoch and fabricate a garbage path.
// It must report not-reached instead — in particular for a vertex a
// *previous* run did visit.
func TestBFSPathToUnreached(t *testing.T) {
	// 0 -> 1 -> 2, and isolated 3; 2 unreachable from 1's component
	// when starting at 2.
	g := buildTestCSR(t, 4, [][2]int{{0, 1}, {1, 2}})
	s := newSearch(4)
	wanted := s.wanted
	wanted[2] = true
	if reached, _ := s.runBFS(g, nil, 0, wanted, 1, nil); reached != 1 {
		t.Fatalf("first run: reached = %d, want 1", reached)
	}
	if p, ok := s.pathTo(2); !ok || len(p) != 2 {
		t.Fatalf("first run: pathTo(2) = %v, %v; want 2-hop path", p, ok)
	}
	// Second run from the isolated vertex: 2 keeps its stale dist=2,
	// parentRow scratch from the first epoch, but must read as
	// not-reached now.
	wanted[2] = false
	wanted[0] = true
	if reached, _ := s.runBFS(g, nil, 3, wanted, 1, nil); reached != 0 {
		t.Fatal("second run reached a vertex from the isolated source")
	}
	for _, v := range []VertexID{0, 1, 2} {
		if p, ok := s.pathTo(v); ok || p != nil {
			t.Fatalf("pathTo(%d) after isolated run = %v, %v; want nil, false", v, p, ok)
		}
	}
	// Same guard after Dijkstra runs on a fresh scratch.
	d := newSearch(4)
	weights := []int64{1, 1}
	if reached, _ := d.runInt(g, nil, 0, weights, wanted[:], 1, nil); reached != 1 {
		t.Fatal("dijkstra first run did not reach 0... (source is wanted)")
	}
	if _, err := d.runInt(g, nil, 3, weights, make([]bool, 4), 0, nil); err != nil {
		t.Fatal(err)
	}
	if p, ok := d.pathTo(2); ok || p != nil {
		t.Fatalf("dijkstra pathTo(2) after isolated run = %v, %v; want nil, false", p, ok)
	}
	// A Dijkstra run that stops at its last wanted vertex leaves
	// vertices reached but unsettled: here 0->2 (row 2, cost 5) was
	// relaxed before 0->1->2 (cost 2) was found. pathTo reports such a
	// vertex as reached with a path that need not be shortest, so the
	// answer must come from settled: it is only settled once wanted.
	h := buildTestCSR(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	e := newSearch(3)
	hw := []int64{1, 1, 5}
	e.wanted[1] = true
	if reached, _ := e.runInt(h, nil, 0, hw, e.wanted, 1, nil); reached != 1 {
		t.Fatalf("early-stop run: reached = %d, want 1", reached)
	}
	if !e.seen(2) || e.settled(2) || e.dist[2] != 5 {
		t.Fatalf("vertex 2 after early stop: seen=%v settled=%v dist=%d; want reached, unsettled, 5",
			e.seen(2), e.settled(2), e.dist[2])
	}
	if p, ok := e.pathTo(2); !ok || !reflect.DeepEqual(p, []int32{2}) {
		t.Fatalf("pathTo(2) after early stop = %v, %v; want the relaxed 1-hop edge [2]", p, ok)
	}
	e.wanted[1], e.wanted[2] = false, true
	if reached, _ := e.runInt(h, nil, 0, hw, e.wanted, 1, nil); reached != 1 {
		t.Fatalf("second run: reached = %d, want 1", reached)
	}
	if p, ok := e.pathTo(2); !ok || !e.settled(2) || e.dist[2] != 2 || !reflect.DeepEqual(p, []int32{0, 1}) {
		t.Fatalf("pathTo(2) once wanted = %v, %v (settled=%v dist=%d); want settled [0 1] at 2",
			p, ok, e.settled(2), e.dist[2])
	}
}

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of Err calls — a deterministic stand-in for "the client
// disconnects while the traversal is in flight" that lets tests assert
// exactly how much work runs after cancellation is observable.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBFSReportsEveryLevel pins the per-level samples the solver hands
// to OnLevel (EXPLAIN ANALYZE frontier lines, the benchmark's
// bfs_levels_per_query): one (level, frontier size, direction) per
// level the traversal started expanding, including the level it stops
// on after an early exit, and none when the source is the only
// destination. Over a graph that carries its transpose the pair is
// searched from both ends: each step expands the smaller frontier
// (forward on a tie), and backward levels count from the destination.
func TestBFSReportsEveryLevel(t *testing.T) {
	type level struct {
		level    int64
		size     int
		backward bool
	}
	line := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	tree := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}
	for _, tc := range []struct {
		name     string
		n        int
		edges    [][2]int
		index    bool // the graph carries its transpose
		src, dst VertexID
		hops     int64 // -1: unreachable
		want     []level
	}{
		{"early exit on a line", 4, line, false, 0, 3, 3, []level{{0, 1, false}, {1, 1, false}, {2, 1, false}}},
		{"early exit mid-level", 5, tree, false, 0, 3, 2, []level{{0, 1, false}, {1, 2, false}}},
		{"exhausted component", 6, tree, false, 0, 5, -1, []level{{0, 1, false}, {1, 2, false}, {2, 1, false}, {3, 1, false}}},
		{"src == dst", 4, line, false, 2, 2, 0, nil},
		{"bidirectional line", 4, line, true, 0, 3, 3, []level{{0, 1, false}, {1, 1, false}, {2, 1, false}}},
		{"bidirectional tree", 5, tree, true, 0, 4, 3, []level{{0, 1, false}, {0, 1, true}, {1, 1, true}}},
		{"bidirectional unreachable", 6, tree, true, 0, 5, -1, []level{{0, 1, false}, {0, 1, true}}},
		{"bidirectional src == dst", 4, line, true, 2, 2, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := buildTestCSR(t, tc.n, tc.edges)
			if tc.index {
				g = withTranspose(t, tc.n, tc.edges)
			}
			s := NewSolver(g)
			var got []level
			s.OnLevel = func(l int64, size int, backward bool) { got = append(got, level{l, size, backward}) }
			sol, err := s.Solve([]VertexID{tc.src}, []VertexID{tc.dst}, []Spec{{Unit: true, UnitI: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("levels = %v, want %v", got, tc.want)
			}
			if reached := sol.Reached[0]; reached != (tc.hops >= 0) || reached && sol.CostI[0][0] != tc.hops {
				t.Fatalf("reached %v at %d hops, want %d hops", reached, sol.CostI[0][0], tc.hops)
			}
		})
	}
}

// TestSequentialTraversalCancelGranularity asserts every traversal
// polls its context: queue BFS and the Dijkstra variants abort within
// cancelCheckInterval pops of cancellation instead of running
// the traversal to completion (the old source-group granularity).
func TestSequentialTraversalCancelGranularity(t *testing.T) {
	// A chain: every dequeue visits exactly one new vertex, so the
	// visited count measures the post-cancel overrun directly.
	n := 4 * cancelCheckInterval
	src := make([]VertexID, n-1)
	dst := make([]VertexID, n-1)
	weights := make([]int64, n-1)
	for i := range src {
		src[i], dst[i], weights[i] = VertexID(i), VertexID(i+1), 1
	}
	g, err := BuildCSRParallelCtx(context.Background(), n, src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}

	s := newSearch(n)
	wanted := s.wanted
	if _, err := s.runBFS(g, nil, 0, wanted, 0, newCountdownCtx(1)); err == nil {
		t.Fatal("canceled BFS returned nil error")
	}
	if got, limit := len(s.queue), 2*cancelCheckInterval+2; got > limit {
		t.Fatalf("BFS visited %d vertices after cancellation, want <= %d", got, limit)
	}

	// Bidirectional BFS over the chain's transpose: each level holds one
	// vertex, so its two queues count the dequeues too.
	if g.In, err = BuildTransposeCtx(context.Background(), n, src, dst, 1); err != nil {
		t.Fatal(err)
	}
	b := newSearch(n)
	if _, _, err := b.runBiBFS(g, nil, 0, VertexID(n-1), newCountdownCtx(1)); err == nil {
		t.Fatal("canceled bidirectional BFS returned nil error")
	}
	if got, limit := len(b.queue)+len(b.bqueue), 2*cancelCheckInterval+2; got > limit {
		t.Fatalf("bidirectional BFS visited %d vertices after cancellation, want <= %d", got, limit)
	}

	d := newSearch(n)
	countSettled := func() int {
		c := 0
		for v := 0; v < n; v++ {
			if d.settled(VertexID(v)) {
				c++
			}
		}
		return c
	}
	if _, err := d.runInt(g, nil, 0, weights, wanted, 0, newCountdownCtx(1)); err == nil {
		t.Fatal("canceled Dijkstra (radix) returned nil error")
	}
	if got, limit := countSettled(), 2*cancelCheckInterval+2; got > limit {
		t.Fatalf("Dijkstra settled %d vertices after cancellation, want <= %d", got, limit)
	}
	if _, err := runHeap(d, &d.bqI, d.dist, g, nil, 0, weights, wanted, 0, newCountdownCtx(1)); err == nil {
		t.Fatal("canceled Dijkstra (binary heap) returned nil error")
	}
	fweights := make([]float64, len(weights))
	for i := range fweights {
		fweights[i] = 1
	}
	if _, err := runHeap(d, &d.bqF, d.floatDist(), g, nil, 0, fweights, wanted, 0, newCountdownCtx(1)); err == nil {
		t.Fatal("canceled Dijkstra (float) returned nil error")
	}
}

// TestSolverCancelSingleTraversal checks the end-to-end contract at
// the Solver level: a single-source solve (one group — the case the
// old source-group granularity could never abort) returns the
// context's error once canceled mid-traversal, for both BFS and
// Dijkstra specs, and for the bidirectional BFS over a graph that
// carries its transpose.
func TestSolverCancelSingleTraversal(t *testing.T) {
	n := 4 * cancelCheckInterval
	src := make([]VertexID, n-1)
	dst := make([]VertexID, n-1)
	weights := make([]int64, n-1)
	for i := range src {
		src[i], dst[i], weights[i] = VertexID(i), VertexID(i+1), 1
	}
	g, err := BuildCSRParallelCtx(context.Background(), n, src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	index := &CSR{N: g.N, Offsets: g.Offsets, Targets: g.Targets, Perm: g.Perm}
	if index.In, err = BuildTransposeCtx(context.Background(), n, src, dst, 1); err != nil {
		t.Fatal(err)
	}
	for _, csr := range []*CSR{g, index} {
		for _, spec := range []Spec{{Unit: true, UnitI: 1}, {WeightsI: weights}} {
			s := NewSolver(csr)
			// 2 polls: one consumed at the group boundary, the next
			// inside the traversal.
			s.Ctx = newCountdownCtx(2)
			if _, err := s.Solve([]VertexID{0}, []VertexID{VertexID(n - 1)}, []Spec{spec}); err != context.Canceled {
				t.Fatalf("spec %+v (transpose %v): err = %v, want context.Canceled", spec, csr.In != nil, err)
			}
		}
	}
}
