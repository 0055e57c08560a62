package graph

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graphsql/internal/fault"
	"graphsql/internal/trace"
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
// up from zero in each direction. The Solver, which searches the
// destinations of unit-weight groups from both ends until a forward
// traversal is projected to be cheaper, must answer the pairs exactly
// as it does over the same graph without a transpose. A third of the
// draws take every pair from one source, so that one group holds all
// of them, duplicates and the source itself included.
func checkBidirectional(t *testing.T, p picker) {
	g, delta, n := genBidirectional(p)
	s := newSearch(n)
	s.record = true
	checkLevels := func() {
		t.Helper()
		var next [2]int64
		for _, l := range s.levels {
			dir := 0
			if l.Backward {
				dir = 1
			}
			if l.Level != next[dir] {
				t.Fatalf("levels %v: backward=%v level %d, want %d", s.levels, l.Backward, l.Level, next[dir])
			}
			next[dir]++
		}
		s.levels = s.levels[:0]
	}
	pairs := 1 + p.Intn(16)
	oneSource := p.Intn(3) == 0
	srcs, dsts := make([]VertexID, pairs), make([]VertexID, pairs)
	for i := range srcs {
		src, dst := VertexID(p.Intn(n)), VertexID(p.Intn(n))
		if oneSource && i > 0 {
			src = srcs[0]
		}
		srcs[i], dsts[i] = src, dst
		s.wanted[dst] = true
		if _, err := s.runBFS(g, delta, src, s.wanted, 1, nil); err != nil {
			t.Fatal(err)
		}
		checkLevels()
		s.wanted[dst] = false
		wantHops, wantOK := s.dist[dst], s.seen(dst)
		hops, ok, err := s.runBiBFS(g, delta, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkLevels()
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
			t.Fatalf("solver over the transpose differs (pairs %v -> %v)\nforward: %+v\nboth ends: %+v", srcs, dsts, want, got)
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

// solveTraced solves on g and returns the solution with what the solve
// handed its trace span.
func solveTraced(t *testing.T, s *Solver, srcs, dsts []VertexID, specs []Spec) (*Solution, trace.Searches, error) {
	t.Helper()
	tr := trace.New()
	s.Trace, s.Span = tr, tr.Begin(trace.NoSpan, "GraphMatch")
	sol, err := s.Solve(srcs, dsts, specs)
	tr.End(s.Span)
	var searches trace.Searches
	if node := tr.Tree().Children[0]; node.Searches != nil {
		searches = *node.Searches
	}
	return sol, searches, err
}

// TestGroupSearchesBothEndsThenForward pins both branches of a
// multi-destination group over a graph that carries its transpose. On
// the star 0 -> {1..8} (9 vertices) a search from both ends to d
// expands the source up to its edge to d: it reaches the source, 1..d
// and d from the other side, d+1 vertices. Destinations 5 then 3
// project 1 × 6 ≤ 9 after the first search, so both are searched from
// both ends; 8, 7, ..., 1 project 7 × 9 > 9 and switch to one forward
// BFS for the remaining seven. A repeated destination is searched
// once, and the source as its own destination is a search that reaches
// only itself (0, 1, ... projects 8 × 1 ≤ 9, then 7 × 3/2 > 9). Every
// answer equals the forward-only solver's.
func TestGroupSearchesBothEndsThenForward(t *testing.T) {
	var star [][2]int
	for v := 1; v <= 8; v++ {
		star = append(star, [2]int{0, v})
	}
	g := withTranspose(t, 9, star)
	forward := buildTestCSR(t, 9, star)
	for _, tc := range []struct {
		name string
		dsts []VertexID
		want trace.Searches
	}{
		{"two destinations", []VertexID{5, 3}, trace.Searches{Both: 2}},
		{"a repeated destination", []VertexID{3, 5, 3}, trace.Searches{Both: 2}},
		{"the source among them", []VertexID{3, 0, 5, 0}, trace.Searches{Both: 3}},
		{"every vertex", []VertexID{8, 7, 6, 5, 4, 3, 2, 1}, trace.Searches{Both: 1, Forward: 7}},
		{"every vertex and the source", []VertexID{0, 1, 2, 3, 4, 5, 6, 7, 8}, trace.Searches{Both: 2, Forward: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srcs := make([]VertexID, len(tc.dsts))
			specs := []Spec{{Unit: true, UnitI: 2}, {Unit: true, Float: true, UnitF: 0.5}}
			got, searches, err := solveTraced(t, NewSolver(g), srcs, tc.dsts, specs)
			if err != nil {
				t.Fatal(err)
			}
			if searches != tc.want {
				t.Fatalf("searches %+v, want %+v", searches, tc.want)
			}
			want, fwd, err := solveTraced(t, NewSolver(forward), srcs, tc.dsts, specs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("answers differ\nforward: %+v\nboth ends: %+v", want, got)
			}
			if distinct := len(slices.Compact(slices.Sorted(slices.Values(tc.dsts)))); fwd != (trace.Searches{Forward: distinct}) {
				t.Fatalf("ad hoc graph searches %+v, want %d forward", fwd, distinct)
			}
		})
	}
}

// chainGroup is a chain 0 -> 1 -> ... -> n-1 over its transpose and
// one group from 0 to the destinations 1..k. Each search from both
// ends expands d forward levels of one vertex to reach d, so the group
// pops k(k+1)/2 vertices in all. A search reaches d+1 vertices, so in
// any order the projection stays below k(k+1), and the group does not
// switch while that is at most n.
func chainGroup(t *testing.T, n, k int) (*CSR, []VertexID, []VertexID) {
	t.Helper()
	line := make([][2]int, n-1)
	for i := range line {
		line[i] = [2]int{i, i + 1}
	}
	srcs, dsts := make([]VertexID, k), make([]VertexID, k)
	for i := range dsts {
		dsts[i] = VertexID(i + 1)
	}
	return withTranspose(t, n, line), srcs, dsts
}

// TestGroupSearchesPollContext cancels a group of many short searches
// from both ends. No single search pops cancelCheckInterval vertices,
// so only a dequeue count that runs across the group's searches polls
// the context: the solve must stop once the group has popped two poll
// intervals' worth instead of finishing the group.
func TestGroupSearchesPollContext(t *testing.T) {
	// 192 destinations pop 18,528 vertices in all, four poll
	// intervals.
	const k = 192
	g, srcs, dsts := chainGroup(t, 16*cancelCheckInterval, k)
	s := NewSolver(g)
	// One poll at the group boundary, one at pop cancelCheckInterval,
	// and the third cancels.
	s.Ctx = newCountdownCtx(2)
	_, searches, err := solveTraced(t, s, srcs, dsts, []Spec{{Unit: true, UnitI: 1}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if searches.Both >= k || searches.Forward != 0 {
		t.Fatalf("searches %+v: the group ran to its end or switched", searches)
	}
}

// TestGroupSearchesLevelFault arms the level fault point to fire in the
// second search of a group searched from both ends: the injected error
// surfaces from Solve, and the samples of the levels that ran are
// still handed over.
func TestGroupSearchesLevelFault(t *testing.T) {
	t.Cleanup(fault.Reset)
	g, srcs, dsts := chainGroup(t, 64, 3)
	// Destinations 1, 2, 3 take 1, 2 and 3 forward levels: skip the
	// first 2 hits, so the second level of the second search fails.
	if err := fault.Set(fault.Rule{Point: fault.PointSolverLevel, Kind: fault.KindError, After: 2}); err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g)
	var levels []int64
	s.OnLevel = func(level int64, _ int, _ bool) { levels = append(levels, level) }
	_, searches, err := solveTraced(t, s, srcs, dsts, []Spec{{Unit: true, UnitI: 1}})
	var inj *fault.InjectedError
	if !errors.As(err, &inj) || inj.Point != fault.PointSolverLevel {
		t.Fatalf("Solve error = %v, want injected error at %s", err, fault.PointSolverLevel)
	}
	if searches != (trace.Searches{Both: 2}) || !reflect.DeepEqual(levels, []int64{0, 0}) {
		t.Fatalf("searches %+v, levels %v; want 2 from both ends and levels [0 0]", searches, levels)
	}
}
