package graph

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestEpochWrapClearsStaleStamps runs BFS, bidirectional BFS and
// Dijkstra on one scratch across the wrap of its epoch counter, which
// a pooled scratch reaches after 2^32 runs. The runs before the wrap
// stamp vertices with epochs 1, 2 and 3 in every stamp array (forward,
// backward and settled); the runs after it reuse exactly those epochs,
// so a stamp array the wrap failed to clear would read stale vertices
// as seen or settled.
func TestEpochWrapClearsStaleStamps(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, 4 -> {5, 6}, and an isolated 7.
	const n = 8
	g := withTranspose(t, n, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {4, 6}})
	weights := []int64{1, 1, 1, 1, 1}
	s := newSearch(n)
	none := make([]bool, n)

	// Epoch 1: forward stamps on 0..3.
	if _, err := s.runBFS(g, nil, 0, none, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: forward stamps on 4..6; the backward half exhausts 3's
	// ancestors 3..0 (4's frontier of two is the larger one).
	if _, ok, err := s.runBiBFS(g, nil, 4, 3, nil); err != nil || ok {
		t.Fatalf("4 -> 3: reached %v, err %v; want unreachable", ok, err)
	}
	// Epoch 3: settled stamps on 0..3.
	if _, err := s.runInt(g, nil, 0, weights, none, 0, nil); err != nil {
		t.Fatal(err)
	}
	if s.cur != 3 {
		t.Fatalf("epoch before the wrap = %d, want 3", s.cur)
	}

	// only reports the vertices of stamps equal to the current epoch.
	only := func(what string, stamps []uint32, want ...VertexID) {
		t.Helper()
		var got []VertexID
		for v := range stamps {
			if stamps[v] == s.cur {
				got = append(got, VertexID(v))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: %s vertices %v, want %v", s.cur, what, got, want)
		}
	}
	s.cur = math.MaxUint32
	if _, err := s.runBFS(g, nil, 7, none, 0, nil); err != nil {
		t.Fatal(err)
	}
	if s.cur != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", s.cur)
	}
	only("seen", s.epoch, 7)
	if _, ok, err := s.runBiBFS(g, nil, 7, 0, nil); err != nil || ok {
		t.Fatalf("7 -> 0: reached %v, err %v; want unreachable", ok, err)
	}
	only("seen", s.epoch, 7)
	only("backward-seen", s.bepoch, 0)
	if _, err := s.runInt(g, nil, 7, weights, none, 0, nil); err != nil {
		t.Fatal(err)
	}
	only("seen", s.epoch, 7)
	only("settled", s.settledAt, 7)

	// The scratch still answers correctly after the wrap.
	for _, tc := range []struct {
		src, dst VertexID
		hops     int64
	}{{0, 3, 3}, {4, 6, 1}, {1, 0, -1}, {5, 5, 0}} {
		hops, ok, err := s.runBiBFS(g, nil, tc.src, tc.dst, nil)
		if err != nil || ok != (tc.hops >= 0) || ok && hops != tc.hops {
			t.Fatalf("%d -> %d after the wrap: %d hops, reached %v, err %v; want %d hops", tc.src, tc.dst, hops, ok, err, tc.hops)
		}
	}
}

// TestPooledScratchFollowsDeltaGrowth solves over a snapshot, which
// leaves scratch sized for it in the graph's pool, then over the same
// snapshot plus a delta that adds vertices: the short scratch must be
// dropped, not indexed out of range.
func TestPooledScratchFollowsDeltaGrowth(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}}
	g := withTranspose(t, 3, edges)
	unit := []Spec{{Unit: true, UnitI: 1}}
	if _, err := NewSolver(g).Solve([]VertexID{0}, []VertexID{2}, unit); err != nil {
		t.Fatal(err)
	}
	delta := NewDelta(3)
	delta.Add(2, 3, 2)
	delta.Add(3, 40, 3)
	for _, specs := range [][]Spec{nil, unit, {{WeightsI: []int64{1, 1, 1, 1}}}} {
		sol, err := NewSolverWithDelta(g, delta).Solve([]VertexID{0, 40}, []VertexID{40, 0}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Reached[0] || sol.Reached[1] {
			t.Fatalf("specs %+v: reached %v, want [true false]", specs, sol.Reached)
		}
		if len(specs) > 0 && sol.CostI[0][0] != 4 {
			t.Fatalf("specs %+v: cost %d, want 4", specs, sol.CostI[0][0])
		}
	}
}

// genBidirectional draws a snapshot CSR that carries its transpose, and
// usually a delta of appended edges, some of which reach vertices the
// snapshot does not know.
func genBidirectional(p picker) (g *CSR, delta *Delta, n int) {
	snapN := 1 + p.Intn(24)
	n = snapN + p.Intn(4)
	m := p.Intn(3*snapN + 1)
	src := make([]VertexID, m)
	dst := make([]VertexID, m)
	for i := range src {
		src[i], dst[i] = VertexID(p.Intn(snapN)), VertexID(p.Intn(snapN))
	}
	g, err := BuildCSRParallelCtx(context.Background(), snapN, src, dst, 1)
	if err != nil {
		panic(err)
	}
	if g.In, err = BuildTransposeCtx(context.Background(), snapN, src, dst, 1); err != nil {
		panic(err)
	}
	if p.Intn(4) == 0 {
		return g, nil, snapN
	}
	delta = NewDelta(snapN)
	for i, dm := 0, p.Intn(2*n+1); i < dm; i++ {
		delta.Add(VertexID(p.Intn(n)), VertexID(p.Intn(n)), int32(m+i))
	}
	delta.N = n // vertices no edge reaches yet are still vertices
	return g, delta, n
}

// checkBidirectional holds runBiBFS to runBFS on random pairs of one
// random graph: the same reachability and hop count, on one scratch
// reused across both traversals. Every traversal's levels must count
// up from zero in each direction. The Solver, which picks the
// bidirectional search for single-pair unit-weight groups, must answer
// the pairs exactly as it does over the same graph without a transpose.
func checkBidirectional(t *testing.T, p picker) {
	g, delta, n := genBidirectional(p)
	s := newSearch(n)
	var next [2]int64
	s.onLevel = func(level int64, _ int, backward bool) {
		dir := 0
		if backward {
			dir = 1
		}
		if level != next[dir] {
			t.Fatalf("backward=%v level %d, want %d", backward, level, next[dir])
		}
		next[dir]++
	}
	pairs := 1 + p.Intn(16)
	srcs, dsts := make([]VertexID, pairs), make([]VertexID, pairs)
	for i := range srcs {
		src, dst := VertexID(p.Intn(n)), VertexID(p.Intn(n))
		srcs[i], dsts[i] = src, dst
		s.wanted[dst] = true
		next = [2]int64{}
		if _, err := s.runBFS(g, delta, src, s.wanted, 1, nil); err != nil {
			t.Fatal(err)
		}
		s.wanted[dst] = false
		wantHops, wantOK := s.dist[dst], s.seen(dst)
		next = [2]int64{}
		hops, ok, err := s.runBiBFS(g, delta, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || ok && hops != wantHops {
			t.Fatalf("%d -> %d (n %d, delta %v): bidirectional %d hops, reached %v; forward %d hops, reached %v",
				src, dst, n, delta != nil, hops, ok, wantHops, wantOK)
		}
	}
	forward := &CSR{N: g.N, Offsets: g.Offsets, Targets: g.Targets, Perm: g.Perm}
	for _, specs := range [][]Spec{nil, {{Unit: true, UnitI: 3}, {Unit: true, Float: true, UnitF: 0.5}}} {
		want, err := NewSolverWithDelta(forward, delta).Solve(srcs, dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSolverWithDelta(g, delta).Solve(srcs, dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("solver over the transpose differs\nforward: %+v\nboth ends: %+v", want, got)
		}
	}
}

// TestBidirectionalBFSMatchesForward runs checkBidirectional over
// seeded random graphs.
func TestBidirectionalBFSMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		checkBidirectional(t, rng)
	}
}

// FuzzBidirectionalBFS drives checkBidirectional from fuzz input. The
// seed corpus is generator output for a range of seeds.
func FuzzBidirectionalBFS(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 64+r.Intn(256))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBidirectional(t, &bytePicker{data: data})
	})
}
