package graph

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// forceFrontierParallel lowers the per-level gate so tiny test graphs
// exercise the claim/merge machinery, restoring it on cleanup.
func forceFrontierParallel(t *testing.T) {
	t.Helper()
	prev := minParallelFrontier
	minParallelFrontier = 1
	t.Cleanup(func() { minParallelFrontier = prev })
}

// requireSameBFSState asserts two bfsStates agree on everything the
// solver reads: the visited set, distances, parent edges and the queue
// (discovery) order.
func requireSameBFSState(t *testing.T, n int, seq, par *bfsState) {
	t.Helper()
	if !reflect.DeepEqual(seq.queue, par.queue) {
		t.Fatalf("queue order differs:\nseq %v\npar %v", seq.queue, par.queue)
	}
	for v := VertexID(0); int(v) < n; v++ {
		if seq.visited(v) != par.visited(v) {
			t.Fatalf("vertex %d: visited %v (seq) vs %v (par)", v, seq.visited(v), par.visited(v))
		}
		if !seq.visited(v) {
			continue
		}
		if seq.dist[v] != par.dist[v] || seq.parentRow[v] != par.parentRow[v] || seq.parentVertex[v] != par.parentVertex[v] {
			t.Fatalf("vertex %d: (dist,row,parent) seq (%d,%d,%d) vs par (%d,%d,%d)",
				v, seq.dist[v], seq.parentRow[v], seq.parentVertex[v],
				par.dist[v], par.parentRow[v], par.parentVertex[v])
		}
		sp, sok := seq.pathTo(v)
		pp, pok := par.pathTo(v)
		if sok != pok || !reflect.DeepEqual(sp, pp) {
			t.Fatalf("vertex %d: path differs: %v/%v vs %v/%v", v, sp, sok, pp, pok)
		}
	}
}

// TestBFSParallelMatchesSequential is the state-level equivalence test
// of the frontier-parallel BFS: for random graphs (with and without a
// delta), random sources and random early-exit destination sets, the
// parallel traversal must leave scratch state — visited set, dist,
// parent edges, queue order — identical to the sequential queue BFS,
// at several worker counts, with the per-level gate forced open.
// State reuse across trials exercises the epoch stamping and the
// claim-free invariant after early exits.
func TestBFSParallelMatchesSequential(t *testing.T) {
	forceFrontierParallel(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		w := makeWorkload(rng, trial%2 == 1)
		seq := newBFSState(w.n)
		pars := []*bfsState{newBFSState(w.n), newBFSState(w.n), newBFSState(w.n)}
		workerCounts := []int{2, 3, 8}
		// Several runs per state to exercise epoch/claim reuse.
		for run := 0; run < 4; run++ {
			src := VertexID(rng.Intn(w.n))
			wanted := make([]bool, w.n)
			distinct := 0
			for i := 0; i < rng.Intn(4); i++ {
				d := rng.Intn(w.n)
				if !wanted[d] {
					wanted[d] = true
					distinct++
				}
			}
			wantReached, err := seq.runBFS(w.g, w.delta, src, wanted, distinct, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, par := range pars {
				gotReached, err := par.runBFSParallel(w.g, w.delta, src, wanted, distinct, workerCounts[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				if gotReached != wantReached {
					t.Fatalf("trial %d run %d workers %d: reached %d, want %d",
						trial, run, workerCounts[i], gotReached, wantReached)
				}
				requireSameBFSState(t, w.n, seq, par)
			}
		}
	}
}

// TestSolverIntraSourceMatchesSequential checks the solver wiring: a
// batch with fewer source groups than the worker budget routes through
// the frontier-parallel BFS and still produces a Solution deeply equal
// to the sequential one, including paths and across scratch reuse.
func TestSolverIntraSourceMatchesSequential(t *testing.T) {
	forceFrontierParallel(t)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 150; trial++ {
		w := makeWorkload(rng, trial%2 == 1)
		// Collapse to 1-3 distinct sources so groups < budget and the
		// leftover workers go to frontier parallelism.
		distinctSrcs := 1 + rng.Intn(3)
		for i := range w.srcs {
			if w.srcs[i] != NoVertex {
				w.srcs[i] = VertexID(rng.Intn(distinctSrcs) * (w.n / 4) % w.n)
			}
		}
		specs := w.randomSpecs(rng)

		seq := NewSolverWithDelta(w.g, w.delta)
		seq.Parallelism = 1
		want, err := seq.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}

		par := NewSolverWithDelta(w.g, w.delta)
		par.Parallelism = 8
		par.forceParallel = true
		if got := par.intraWorkers(distinctSrcs, distinctSrcs); got < 2 {
			t.Fatalf("trial %d: intraWorkers(%d) = %d, want >= 2", trial, distinctSrcs, got)
		}
		got, err := par.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: intra-parallel solution differs\nseq: %+v\npar: %+v", trial, want, got)
		}
		again, err := par.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Fatalf("trial %d: second intra-parallel solve differs", trial)
		}
	}
}

// TestBFSPathToUnreached is the regression test for the stale-scratch
// bug: pathTo on a vertex the current run never visited used to read
// dist/parentRow from an earlier epoch and fabricate a garbage path.
// It must report not-reached instead — in particular for a vertex a
// *previous* run did visit.
func TestBFSPathToUnreached(t *testing.T) {
	// 0 -> 1 -> 2, and isolated 3; 2 unreachable from 1's component
	// when starting at 2.
	g, err := buildCSRSeq(context.Background(), 4, []VertexID{0, 1}, []VertexID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newBFSState(4)
	wanted := make([]bool, 4)
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
	// Same guard on the Dijkstra scratch.
	d := newDijkstraState(4)
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

// layeredGraph builds width×depth vertices arranged in depth levels
// with complete bipartite edges between consecutive levels, plus a
// root (vertex 0) fanning into level 0.
func layeredGraph(t *testing.T, width, depth int) *CSR {
	t.Helper()
	id := func(level, i int) VertexID { return VertexID(1 + level*width + i) }
	var src, dst []VertexID
	for i := 0; i < width; i++ {
		src = append(src, 0)
		dst = append(dst, id(0, i))
	}
	for l := 0; l+1 < depth; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				src = append(src, id(l, i))
				dst = append(dst, id(l+1, j))
			}
		}
	}
	g, err := buildCSRSeq(context.Background(), 1+width*depth, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFrontierParallelCancelWithinOneLevel asserts the acceptance
// criterion: the frontier-parallel BFS polls its context at every
// level boundary, so it stops expanding within one frontier level of
// the cancellation becoming observable.
func TestFrontierParallelCancelWithinOneLevel(t *testing.T) {
	forceFrontierParallel(t)
	const width, depth = 32, 40
	g := layeredGraph(t, width, depth)
	s := newBFSState(g.N)
	wanted := make([]bool, g.N)

	// Err goes canceled on its 6th poll: the level loop has expanded at
	// most 5 levels (root + 4 bipartite layers) and must not start a
	// 6th.
	ctx := newCountdownCtx(5)
	reached, err := s.runBFSParallel(g, nil, 0, wanted, 0, 4, ctx)
	if err == nil {
		t.Fatal("canceled traversal returned nil error")
	}
	if reached != 0 {
		t.Fatalf("reached = %d with empty wanted set", reached)
	}
	visited := len(s.queue)
	if limit := 1 + 5*width; visited > limit {
		t.Fatalf("visited %d vertices after cancellation, want <= %d (one extra level)", visited, limit)
	}
	if visited == g.N {
		t.Fatal("traversal ran to completion despite cancellation")
	}
	// The claim-free invariant must survive the abort: a fresh run on
	// the same scratch still matches a sequential traversal.
	seq := newBFSState(g.N)
	if _, err := seq.runBFS(g, nil, 0, wanted, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.runBFSParallel(g, nil, 0, wanted, 0, 4, nil); err != nil {
		t.Fatal(err)
	}
	requireSameBFSState(t, g.N, seq, s)
}

// TestSequentialTraversalCancelGranularity asserts the sequential
// fallbacks poll too: queue BFS and both Dijkstra variants abort
// within cancelCheckInterval pops of cancellation instead of running
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
	g, err := buildCSRSeq(context.Background(), n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	wanted := make([]bool, n)

	s := newBFSState(n)
	if _, err := s.runBFS(g, nil, 0, wanted, 0, newCountdownCtx(1)); err == nil {
		t.Fatal("canceled BFS returned nil error")
	}
	if got, limit := len(s.queue), 2*cancelCheckInterval+2; got > limit {
		t.Fatalf("BFS visited %d vertices after cancellation, want <= %d", got, limit)
	}

	d := newDijkstraState(n)
	countSettled := func() int {
		c := 0
		for v := 0; v < n; v++ {
			if d.seen(VertexID(v)) && d.settled[v] {
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
	if _, err := d.runIntBinaryHeap(g, nil, 0, weights, wanted, 0, newCountdownCtx(1)); err == nil {
		t.Fatal("canceled Dijkstra (binary heap) returned nil error")
	}
	fweights := make([]float64, len(weights))
	for i := range fweights {
		fweights[i] = 1
	}
	if _, err := d.runFloat(g, nil, 0, fweights, wanted, 0, newCountdownCtx(1)); err == nil {
		t.Fatal("canceled Dijkstra (float) returned nil error")
	}
}

// TestSolverCancelSingleTraversal checks the end-to-end contract at
// the Solver level: a single-source solve (one group — the case the
// old source-group granularity could never abort) returns the
// context's error once canceled mid-traversal, for both BFS and
// Dijkstra specs.
func TestSolverCancelSingleTraversal(t *testing.T) {
	n := 4 * cancelCheckInterval
	src := make([]VertexID, n-1)
	dst := make([]VertexID, n-1)
	weights := make([]int64, n-1)
	for i := range src {
		src[i], dst[i], weights[i] = VertexID(i), VertexID(i+1), 1
	}
	g, err := buildCSRSeq(context.Background(), n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{{Unit: true, UnitI: 1}, {WeightsI: weights}} {
		s := NewSolver(g)
		// 2 polls: one consumed at the group boundary, the next inside
		// the traversal.
		s.Ctx = newCountdownCtx(2)
		if _, err := s.Solve([]VertexID{0}, []VertexID{VertexID(n - 1)}, []Spec{spec}); err != context.Canceled {
			t.Fatalf("spec %+v: err = %v, want context.Canceled", spec, err)
		}
	}
}
