package graph

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildTestCSR builds a CSR from an edge list, failing the test on
// error.
func buildTestCSR(t testing.TB, n int, edges [][2]int) *CSR {
	t.Helper()
	src := make([]VertexID, len(edges))
	dst := make([]VertexID, len(edges))
	for i, e := range edges {
		src[i] = VertexID(e[0])
		dst[i] = VertexID(e[1])
	}
	g, err := BuildCSRParallelCtx(context.Background(), n, src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withTranspose builds a CSR that carries its transpose, as a graph
// index does, failing the test on error.
func withTranspose(t testing.TB, n int, edges [][2]int) *CSR {
	t.Helper()
	g := buildTestCSR(t, n, edges)
	src := make([]VertexID, len(edges))
	dst := make([]VertexID, len(edges))
	for i, e := range edges {
		src[i], dst[i] = VertexID(e[0]), VertexID(e[1])
	}
	var err error
	if g.In, err = BuildTransposeCtx(context.Background(), n, src, dst, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v VertexID) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// ownerOf returns the source vertex owning CSR position p.
func ownerOf(g *CSR, p int64) VertexID {
	lo, hi := 0, g.N
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Offsets[mid+1] <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return VertexID(lo)
}

func TestBuildCSRBasic(t *testing.T) {
	g := buildTestCSR(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumEdges() != 5 {
		t.Fatalf("edges = %d, want 5", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 1 || g.OutDegree(3) != 1 {
		t.Fatalf("degrees wrong: %d %d %d", g.OutDegree(0), g.OutDegree(1), g.OutDegree(3))
	}
	// Offsets are a prefix sum of out-degrees (the §3.2 property).
	if g.Offsets[0] != 0 || g.Offsets[4] != 5 {
		t.Fatalf("offsets = %v", g.Offsets)
	}
	for v := 0; v < 4; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			t.Fatalf("offsets not monotone: %v", g.Offsets)
		}
	}
}

func TestBuildCSRRejectsOutOfRange(t *testing.T) {
	if _, err := BuildCSRParallelCtx(context.Background(), 2, []VertexID{0, 5}, []VertexID{1, 0}, 1); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
	if _, err := BuildCSRParallelCtx(context.Background(), 2, []VertexID{0}, []VertexID{-1}, 1); err == nil {
		t.Fatal("expected error for negative destination")
	}
	if _, err := BuildCSRParallelCtx(context.Background(), 2, []VertexID{0, 1}, []VertexID{1}, 1); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestCSRPermReferencesOriginalRows(t *testing.T) {
	// Rows deliberately unsorted by source.
	edges := [][2]int{{2, 0}, {0, 1}, {1, 2}, {0, 2}}
	g := buildTestCSR(t, 3, edges)
	seen := map[int32]bool{}
	for pos, perm := range g.Perm {
		if seen[perm] {
			t.Fatalf("row %d referenced twice", perm)
		}
		seen[perm] = true
		// The CSR entry must describe the same edge as the original
		// row.
		owner := ownerOf(g, int64(pos))
		if int(owner) != edges[perm][0] || int(g.Targets[pos]) != edges[perm][1] {
			t.Fatalf("pos %d: got (%d,%d), original row %d is (%d,%d)",
				pos, owner, g.Targets[pos], perm, edges[perm][0], edges[perm][1])
		}
	}
}

func TestDictIntAndString(t *testing.T) {
	d := NewIntDict(0)
	a := d.EncodeInt(100)
	b := d.EncodeInt(200)
	if a == b {
		t.Fatal("distinct keys share an id")
	}
	if d.EncodeInt(100) != a {
		t.Fatal("re-encoding changed the id")
	}
	if d.LookupInt(100) != a || d.LookupInt(999) != NoVertex {
		t.Fatal("lookup broken")
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d, want 2", d.Len())
	}

	s := NewStringDict(0)
	x := s.EncodeString("ams")
	if s.LookupString("ams") != x || s.LookupString("nyc") != NoVertex {
		t.Fatal("string lookup broken")
	}
}

// referenceDistances is a naive Bellman-Ford used as the oracle for
// property tests.
func referenceDistances(n int, edges [][2]int, w []int64, src int) []int64 {
	const inf = int64(1) << 60
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for i, e := range edges {
			wi := int64(1)
			if w != nil {
				wi = w[i]
			}
			if dist[e[0]] != inf && dist[e[0]]+wi < dist[e[1]] {
				dist[e[1]] = dist[e[0]] + wi
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// randomGraph draws a random directed graph from a seed.
func randomGraph(seed int64) (n int, edges [][2]int, weights []int64) {
	r := rand.New(rand.NewSource(seed))
	n = 2 + r.Intn(30)
	m := r.Intn(4 * n)
	edges = make([][2]int, m)
	weights = make([]int64, m)
	for i := range edges {
		edges[i] = [2]int{r.Intn(n), r.Intn(n)}
		weights[i] = 1 + int64(r.Intn(20))
	}
	return n, edges, weights
}

// solveAll runs the Solver for all (src,dst) pairs with one spec and
// returns dist[src][dst] with -1 for unreachable.
func solveAll(t *testing.T, g *CSR, n int, spec *Spec) [][]int64 {
	t.Helper()
	var srcs, dsts []VertexID
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			srcs = append(srcs, VertexID(s))
			dsts = append(dsts, VertexID(d))
		}
	}
	var specs []Spec
	if spec != nil {
		specs = []Spec{*spec}
	}
	sol, err := NewSolver(g).Solve(srcs, dsts, specs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, n)
	k := 0
	for s := 0; s < n; s++ {
		out[s] = make([]int64, n)
		for d := 0; d < n; d++ {
			if !sol.Reached[k] {
				out[s][d] = -1
			} else if spec == nil {
				out[s][d] = 0
			} else {
				out[s][d] = sol.CostI[0][k]
			}
			k++
		}
	}
	return out
}

// TestPropertyBFSMatchesReference checks unweighted distances against
// Bellman-Ford with unit weights on random graphs.
func TestPropertyBFSMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		n, edges, _ := randomGraph(seed)
		g := buildTestCSR(t, n, edges)
		spec := &Spec{Unit: true, UnitI: 1}
		got := solveAll(t, g, n, spec)
		for s := 0; s < n; s++ {
			ref := referenceDistances(n, edges, nil, s)
			for d := 0; d < n; d++ {
				want := ref[d]
				if want >= int64(1)<<60 {
					want = -1
				}
				if got[s][d] != want {
					t.Logf("seed %d: dist(%d,%d) = %d, want %d", seed, s, d, got[s][d], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDijkstraRadixMatchesReference checks weighted distances
// (radix queue) against Bellman-Ford on random graphs.
func TestPropertyDijkstraRadixMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		n, edges, weights := randomGraph(seed)
		g := buildTestCSR(t, n, edges)
		spec := &Spec{WeightsI: weights}
		got := solveAll(t, g, n, spec)
		for s := 0; s < n; s++ {
			ref := referenceDistances(n, edges, weights, s)
			for d := 0; d < n; d++ {
				want := ref[d]
				if want >= int64(1)<<60 {
					want = -1
				}
				if got[s][d] != want {
					t.Logf("seed %d: dist(%d,%d) = %d, want %d", seed, s, d, got[s][d], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRadixEqualsBinaryHeap cross-checks the two integer
// Dijkstra implementations on random graphs.
func TestPropertyRadixEqualsBinaryHeap(t *testing.T) {
	f := func(seed int64) bool {
		n, edges, weights := randomGraph(seed)
		g := buildTestCSR(t, n, edges)
		radix := solveAll(t, g, n, &Spec{WeightsI: weights})
		bin := solveAll(t, g, n, &Spec{WeightsI: weights, ForceBinaryHeap: true})
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if radix[s][d] != bin[s][d] {
					t.Logf("seed %d: radix %d vs binheap %d at (%d,%d)", seed, radix[s][d], bin[s][d], s, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFloatDijkstraMatchesInt runs float Dijkstra with integer
// valued float weights; costs must agree with the integer runs.
func TestPropertyFloatDijkstraMatchesInt(t *testing.T) {
	f := func(seed int64) bool {
		n, edges, weights := randomGraph(seed)
		g := buildTestCSR(t, n, edges)
		intD := solveAll(t, g, n, &Spec{WeightsI: weights})
		wf := make([]float64, len(weights))
		for i, w := range weights {
			wf[i] = float64(w)
		}
		var srcs, dsts []VertexID
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				srcs = append(srcs, VertexID(s))
				dsts = append(dsts, VertexID(d))
			}
		}
		sol, err := NewSolver(g).Solve(srcs, dsts, []Spec{{WeightsF: wf, Float: true}})
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				want := intD[s][d]
				if !sol.Reached[k] {
					if want != -1 {
						return false
					}
				} else if int64(sol.CostF[0][k]) != want {
					return false
				}
				k++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPathsAreValid checks every returned path: it starts at
// the source, ends at the destination, chains correctly, and its
// weight sum equals the reported cost.
func TestPropertyPathsAreValid(t *testing.T) {
	f := func(seed int64) bool {
		n, edges, weights := randomGraph(seed)
		g := buildTestCSR(t, n, edges)
		var srcs, dsts []VertexID
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				srcs = append(srcs, VertexID(s))
				dsts = append(dsts, VertexID(d))
			}
		}
		sol, err := NewSolver(g).Solve(srcs, dsts, []Spec{{WeightsI: weights, NeedPath: true}})
		if err != nil {
			t.Fatal(err)
		}
		for k := range srcs {
			if !sol.Reached[k] {
				continue
			}
			path := sol.Paths[0][k]
			at := int(srcs[k])
			var sum int64
			for _, row := range path {
				e := edges[row]
				if e[0] != at {
					t.Logf("seed %d: path hop starts at %d, cursor at %d", seed, e[0], at)
					return false
				}
				at = e[1]
				sum += weights[row]
			}
			if at != int(dsts[k]) {
				t.Logf("seed %d: path ends at %d, want %d", seed, at, dsts[k])
				return false
			}
			if sum != sol.CostI[0][k] {
				t.Logf("seed %d: path weight %d != cost %d", seed, sum, sol.CostI[0][k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveHandlesNoVertexPairs(t *testing.T) {
	g := buildTestCSR(t, 2, [][2]int{{0, 1}})
	sol, err := NewSolver(g).Solve(
		[]VertexID{NoVertex, 0, 0},
		[]VertexID{0, NoVertex, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Reached[0] || sol.Reached[1] {
		t.Fatal("NoVertex endpoints must be unreachable")
	}
	if !sol.Reached[2] {
		t.Fatal("valid pair must be reachable")
	}
}

func TestSolveEmptyPairs(t *testing.T) {
	g := buildTestCSR(t, 2, [][2]int{{0, 1}})
	sol, err := NewSolver(g).Solve(nil, nil, []Spec{{Unit: true, UnitI: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Reached) != 0 {
		t.Fatal("expected empty solution")
	}
}

func TestMultipleSpecsShareTraversals(t *testing.T) {
	// 0 -> 1 with w=3 direct, or 0 -> 2 -> 1 with w=1+1.
	edges := [][2]int{{0, 1}, {0, 2}, {2, 1}}
	g := buildTestCSR(t, 3, edges)
	specs := []Spec{
		{Unit: true, UnitI: 1, NeedPath: true},       // hops: direct edge wins (1 hop)
		{WeightsI: []int64{3, 1, 1}, NeedPath: true}, // weights: detour wins (cost 2)
	}
	sol, err := NewSolver(g).Solve([]VertexID{0}, []VertexID{1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Reached[0] {
		t.Fatal("0 must reach 1")
	}
	if sol.CostI[0][0] != 1 {
		t.Fatalf("hop cost = %d, want 1", sol.CostI[0][0])
	}
	if sol.CostI[1][0] != 2 {
		t.Fatalf("weighted cost = %d, want 2", sol.CostI[1][0])
	}
	if len(sol.Paths[0][0]) != 1 || len(sol.Paths[1][0]) != 2 {
		t.Fatalf("path lengths: %d and %d, want 1 and 2", len(sol.Paths[0][0]), len(sol.Paths[1][0]))
	}
}

func TestValidateWeights(t *testing.T) {
	if err := ValidateWeights(&Spec{Unit: true, UnitI: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateWeights(&Spec{Unit: true, UnitI: 0}); err == nil {
		t.Fatal("zero unit weight must be rejected")
	}
	if err := ValidateWeights(&Spec{Unit: true, Float: true, UnitF: -1}); err == nil {
		t.Fatal("negative float unit weight must be rejected")
	}
	if err := ValidateWeights(&Spec{WeightsI: []int64{1, 2, 0}}); err == nil {
		t.Fatal("zero weight must be rejected")
	}
	if err := ValidateWeights(&Spec{WeightsF: []float64{0.5, -0.1}}); err == nil {
		t.Fatal("negative weight must be rejected")
	}
	if err := ValidateWeights(&Spec{WeightsF: []float64{0.5, 0.1}}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochReuseAcrossManySources(t *testing.T) {
	// Run enough solves on one scratch state to exercise epoch reuse.
	n := 50
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g := buildTestCSR(t, n, edges)
	solver := NewSolver(g)
	for round := 0; round < 200; round++ {
		s := VertexID(round % n)
		sol, err := solver.Solve([]VertexID{s}, []VertexID{VertexID(n - 1)}, []Spec{{Unit: true, UnitI: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Reached[0] {
			t.Fatalf("round %d: %d must reach %d", round, s, n-1)
		}
		if sol.CostI[0][0] != int64(n-1-int(s)) {
			t.Fatalf("round %d: cost = %d, want %d", round, sol.CostI[0][0], n-1-int(s))
		}
	}
}
