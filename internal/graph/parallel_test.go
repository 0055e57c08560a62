package graph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomWorkload builds a random graph (CSR plus optional delta of
// appended edges), weight vectors covering snapshot and delta rows,
// and a batch of query pairs including NoVertex entries.
type randomWorkload struct {
	g      *CSR
	delta  *Delta
	wI     []int64
	wF     []float64
	srcs   []VertexID
	dsts   []VertexID
	n      int
	totalM int
	deltaM int
}

func makeWorkload(rng *rand.Rand, withDelta bool) *randomWorkload {
	n := 2 + rng.Intn(60)
	m := rng.Intn(4 * n)
	deltaM := 0
	if withDelta && m > 0 {
		deltaM = rng.Intn(m/2 + 1)
	}
	snapM := m - deltaM
	src := make([]VertexID, m)
	dst := make([]VertexID, m)
	wI := make([]int64, m)
	wF := make([]float64, m)
	for i := 0; i < m; i++ {
		src[i] = VertexID(rng.Intn(n))
		dst[i] = VertexID(rng.Intn(n))
		wI[i] = 1 + int64(rng.Intn(20))
		wF[i] = 0.25 + rng.Float64()*5
	}
	g, err := buildCSRSeq(context.Background(), n, src[:snapM], dst[:snapM])
	if err != nil {
		panic(err)
	}
	var delta *Delta
	if withDelta {
		delta = NewDelta(n)
		for i := snapM; i < m; i++ {
			delta.Add(src[i], dst[i], int32(i))
		}
	}
	pairs := 1 + rng.Intn(40)
	srcs := make([]VertexID, pairs)
	dsts := make([]VertexID, pairs)
	for i := range srcs {
		srcs[i] = VertexID(rng.Intn(n))
		dsts[i] = VertexID(rng.Intn(n))
		if rng.Intn(10) == 0 {
			srcs[i] = NoVertex
		}
		if rng.Intn(10) == 0 {
			dsts[i] = NoVertex
		}
	}
	return &randomWorkload{g: g, delta: delta, wI: wI, wF: wF,
		srcs: srcs, dsts: dsts, n: n, totalM: m, deltaM: deltaM}
}

// randomSpecs draws a random mix of CHEAPEST SUM specs over the
// workload's weight vectors.
func (w *randomWorkload) randomSpecs(rng *rand.Rand) []Spec {
	specs := make([]Spec, rng.Intn(4))
	for k := range specs {
		s := Spec{NeedPath: rng.Intn(2) == 0}
		switch rng.Intn(4) {
		case 0:
			s.Unit, s.UnitI = true, 1+int64(rng.Intn(5))
		case 1:
			s.Unit, s.Float, s.UnitF = true, true, 0.5+rng.Float64()
		case 2:
			s.WeightsI = w.wI
			s.ForceBinaryHeap = rng.Intn(2) == 0
		default:
			s.WeightsF, s.Float = w.wF, true
		}
		specs[k] = s
	}
	return specs
}

// TestSolverParallelMatchesSequential is the randomized equivalence
// test of the parallel solver: for random graphs (with and without a
// delta), random spec mixes and random pair batches, a forced-parallel
// 4-worker solve must produce a Solution deeply equal to the
// sequential one. Run under -race this also exercises the worker pool
// for data races.
func TestSolverParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		withDelta := trial%2 == 1
		w := makeWorkload(rng, withDelta)
		specs := w.randomSpecs(rng)

		seq := NewSolverWithDelta(w.g, w.delta)
		seq.Parallelism = 1
		want, err := seq.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}

		par := NewSolverWithDelta(w.g, w.delta)
		par.Parallelism = 4
		par.forceParallel = true
		got, err := par.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (delta=%v): parallel solution differs\nseq: %+v\npar: %+v",
				trial, withDelta, want, got)
		}
		// Re-solving with the same (now warm) scratch pool must stay
		// identical — the epoch-stamped scratches are reusable.
		again, err := par.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Fatalf("trial %d: second parallel solve differs", trial)
		}
	}
}

// TestBuildCSRParallelMatchesSequential checks the chunked CSR builder
// produces a bit-identical structure for random inputs and worker
// counts, including the empty and single-vertex corners.
func TestBuildCSRParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		m := rng.Intn(300)
		src := make([]VertexID, m)
		dst := make([]VertexID, m)
		for i := 0; i < m; i++ {
			src[i] = VertexID(rng.Intn(n))
			dst[i] = VertexID(rng.Intn(n))
		}
		want, err := buildCSRSeq(context.Background(), n, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 7} {
			got, err := buildCSRParallel(context.Background(), n, src, dst, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d workers %d: CSR differs\nwant %+v\ngot  %+v", trial, workers, want, got)
			}
		}
	}
}

// TestBuildCSRParallelErrors checks the chunked builder reports the
// same first offending row as the sequential one.
func TestBuildCSRParallelErrors(t *testing.T) {
	src := make([]VertexID, 100)
	dst := make([]VertexID, 100)
	src[40] = 99 // out of range for n=10
	src[60] = 77
	dst[30] = -1
	_, wantErr := buildCSRSeq(context.Background(), 10, src, dst)
	_, gotErr := buildCSRParallel(context.Background(), 10, src, dst, 4)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("error mismatch: sequential %v, parallel %v", wantErr, gotErr)
	}
	// Destination errors surface once sources are valid.
	src[40], src[60] = 0, 0
	_, wantErr = buildCSRSeq(context.Background(), 10, src, dst)
	_, gotErr = buildCSRParallel(context.Background(), 10, src, dst, 4)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("dst error mismatch: sequential %v, parallel %v", wantErr, gotErr)
	}
	if _, err := buildCSRParallel(context.Background(), 10, src, dst[:50], 4); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

// TestBulkEncodeMatchesSequential checks the two-phase parallel
// dictionary encoding assigns exactly the dense IDs a sequential pass
// would, for int and string key spaces.
func TestBulkEncodeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(500)
		ss := make([]int64, m)
		ds := make([]int64, m)
		for i := 0; i < m; i++ {
			ss[i] = int64(rng.Intn(m/2 + 1))
			ds[i] = int64(rng.Intn(m/2 + 1))
		}
		seqDict := NewIntDict(m)
		wantS := make([]VertexID, m)
		wantD := make([]VertexID, m)
		for i := 0; i < m; i++ {
			wantS[i] = seqDict.EncodeInt(ss[i])
		}
		for i := 0; i < m; i++ {
			wantD[i] = seqDict.EncodeInt(ds[i])
		}
		parDict := NewIntDict(m)
		gotS := make([]VertexID, m)
		gotD := make([]VertexID, m)
		bulkEncodeParallel(context.Background(), parDict.ints, &parDict.n, [][]int64{ss, ds}, [][]VertexID{gotS, gotD}, 4, 2*m)
		if parDict.Len() != seqDict.Len() {
			t.Fatalf("trial %d: |V| %d != %d", trial, parDict.Len(), seqDict.Len())
		}
		if !reflect.DeepEqual(wantS, gotS) || !reflect.DeepEqual(wantD, gotD) {
			t.Fatalf("trial %d: parallel encoding differs", trial)
		}
	}
	// String key space through the public threshold-gated entry point,
	// with a pre-populated dictionary (the delta-refresh case).
	m := minParallelEncodeKeys
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("v%d", i%(m/3))
	}
	seqDict := NewStringDict(0)
	seqDict.EncodeString("pre")
	want := make([]VertexID, m)
	for i, k := range keys {
		want[i] = seqDict.EncodeString(k)
	}
	parDict := NewStringDict(0)
	parDict.EncodeString("pre")
	got := make([]VertexID, m)
	if err := parDict.EncodeColumnsStringCtx(context.Background(), [][]string{keys}, [][]VertexID{got}, 4); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("string bulk encoding differs from sequential")
	}
}

// TestBuildCSRParallelPublicThreshold drives the public entry point
// past the size gate so the parallel path runs on a realistic input.
func TestBuildCSRParallelPublicThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 5000
	m := minParallelCSREdges + 1000
	src := make([]VertexID, m)
	dst := make([]VertexID, m)
	for i := 0; i < m; i++ {
		src[i] = VertexID(rng.Intn(n))
		dst[i] = VertexID(rng.Intn(n))
	}
	want, err := buildCSRSeq(context.Background(), n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildCSRParallelCtx(context.Background(), n, src, dst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("threshold-gated parallel CSR differs from sequential")
	}
}
