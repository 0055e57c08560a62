package graph

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"graphsql/internal/par"
)

// openGates opens every size gate for the duration of a test, so the
// cores run at the requested worker count on tiny inputs.
func openGates(t testing.TB) {
	t.Helper()
	prev := par.OpenGates(true)
	t.Cleanup(func() { par.OpenGates(prev) })
}

// randomWorkload builds a random graph (CSR, optionally carrying its
// transpose as a graph index does, plus an optional delta of appended
// edges), weight vectors covering snapshot and delta rows, and a batch
// of query pairs including NoVertex entries.
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

func makeWorkload(rng *rand.Rand, withDelta, index bool) *randomWorkload {
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
	g, err := BuildCSRParallelCtx(context.Background(), n, src[:snapM], dst[:snapM], 1)
	if err != nil {
		panic(err)
	}
	if index {
		if g.In, err = BuildTransposeCtx(context.Background(), n, src[:snapM], dst[:snapM], 1); err != nil {
			panic(err)
		}
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
// delta, with and without a transpose), random spec mixes and random pair batches, a 4-worker solve
// with the size gates open must produce a Solution deeply equal to the
// sequential one. Run under -race this also exercises the worker pool
// for data races.
func TestSolverParallelMatchesSequential(t *testing.T) {
	openGates(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		withDelta := trial%2 == 1
		w := makeWorkload(rng, withDelta, trial%4 >= 2)
		specs := w.randomSpecs(rng)

		seq := NewSolverWithDelta(w.g, w.delta)
		seq.Parallelism = 1
		want, err := seq.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}

		pool := NewSolverWithDelta(w.g, w.delta)
		pool.Parallelism = 4
		got, err := pool.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (delta=%v): parallel solution differs\nseq: %+v\npar: %+v",
				trial, withDelta, want, got)
		}
		// Re-solving with the same (now warm) scratch pool must stay
		// identical — the epoch-stamped scratches are reusable.
		again, err := pool.Solve(w.srcs, w.dsts, specs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Fatalf("trial %d: second parallel solve differs", trial)
		}
	}
}
