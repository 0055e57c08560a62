package graph

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphsql/internal/fault"
	"graphsql/internal/par"
)

// buildLine returns a path graph 0 -> 1 -> ... -> n-1 and a batch of
// pairs with many distinct sources (one group per source).
func buildLine(t *testing.T, n int) (*CSR, []VertexID, []VertexID) {
	t.Helper()
	src := make([]VertexID, n-1)
	dst := make([]VertexID, n-1)
	for i := range src {
		src[i] = VertexID(i)
		dst[i] = VertexID(i + 1)
	}
	g, err := BuildCSRParallelCtx(context.Background(), n, src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]VertexID, n-1)
	dsts := make([]VertexID, n-1)
	for i := range srcs {
		srcs[i] = VertexID(i)
		dsts[i] = VertexID(n - 1)
	}
	return g, srcs, dsts
}

// TestSolverInjectedErrorPropagates arms an error fault on the solver
// group point and requires Solve to return that exact injected error —
// not a context error — from the forced-parallel pool.
func TestSolverInjectedErrorPropagates(t *testing.T) {
	t.Cleanup(fault.Reset)
	g, srcs, dsts := buildLine(t, 40)
	if err := fault.Set(fault.Rule{Point: fault.PointSolverGroup, Kind: fault.KindError, After: 3}); err != nil {
		t.Fatal(err)
	}
	openGates(t)
	s := NewSolver(g)
	s.Parallelism = 4
	// Ctx is nil: the error path must not dereference it.
	_, err := s.Solve(srcs, dsts, []Spec{{Unit: true, UnitI: 1}})
	var inj *fault.InjectedError
	if !errors.As(err, &inj) || inj.Point != fault.PointSolverGroup {
		t.Fatalf("Solve error = %v, want injected error at %s", err, fault.PointSolverGroup)
	}
}

// TestSolverWorkerPanicSurfaces arms a panic fault inside the solver
// worker pool: the panic must cross the pool as a *par.WorkerPanic
// whose stack names solveGroup, and the solver must stay usable for a
// clean solve afterwards.
func TestSolverWorkerPanicSurfaces(t *testing.T) {
	t.Cleanup(fault.Reset)
	g, srcs, dsts := buildLine(t, 40)
	if err := fault.Set(fault.Rule{Point: fault.PointSolverGroup, Kind: fault.KindPanic, After: 2}); err != nil {
		t.Fatal(err)
	}
	openGates(t)
	s := NewSolver(g)
	s.Parallelism = 4

	var wp *par.WorkerPanic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("worker panic did not surface")
			}
			var ok bool
			wp, ok = r.(*par.WorkerPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *par.WorkerPanic", r, r)
			}
		}()
		s.Solve(srcs, dsts, []Spec{{Unit: true, UnitI: 1}})
	}()
	if _, ok := wp.Value.(*fault.InjectedPanic); !ok {
		t.Fatalf("panic value = %#v, want *fault.InjectedPanic", wp.Value)
	}
	if !strings.Contains(string(wp.Stack), "solveGroup") {
		t.Fatalf("worker stack does not name solveGroup:\n%s", wp.Stack)
	}

	// The pool drained cleanly; the same solver must work once the
	// schedule is gone.
	fault.Reset()
	sol, err := s.Solve(srcs, dsts, []Spec{{Unit: true, UnitI: 1}})
	if err != nil {
		t.Fatalf("solve after contained panic: %v", err)
	}
	for i := range sol.Reached {
		if !sol.Reached[i] {
			t.Fatalf("pair %d unreachable after recovery; scratch state corrupted?", i)
		}
	}
}

// TestSolverLevelFaultStopsTraversal covers the BFS level point: a
// mid-traversal injected error aborts the one traversal and surfaces
// from Solve, searching forward and, over a graph that carries its
// transpose, from both ends.
func TestSolverLevelFaultStopsTraversal(t *testing.T) {
	t.Cleanup(fault.Reset)
	line := make([][2]int, 63)
	for i := range line {
		line[i] = [2]int{i, i + 1}
	}
	for _, g := range []*CSR{buildTestCSR(t, 64, line), withTranspose(t, 64, line)} {
		if err := fault.Set(fault.Rule{Point: fault.PointSolverLevel, Kind: fault.KindError, After: 5}); err != nil {
			t.Fatal(err)
		}
		s := NewSolver(g)
		_, err := s.Solve([]VertexID{0}, []VertexID{63}, []Spec{{Unit: true, UnitI: 1}})
		var inj *fault.InjectedError
		if !errors.As(err, &inj) || inj.Point != fault.PointSolverLevel {
			t.Fatalf("transpose %v: Solve error = %v, want injected error at %s", g.In != nil, err, fault.PointSolverLevel)
		}
	}
}

// TestBuildCSRFaults covers the graph-build chunk point on the CSR
// core at one and at four workers.
func TestBuildCSRFaults(t *testing.T) {
	t.Cleanup(fault.Reset)
	const n, m = 100, 4000
	rng := rand.New(rand.NewSource(11))
	src := make([]VertexID, m)
	dst := make([]VertexID, m)
	for i := range src {
		src[i] = VertexID(rng.Intn(n))
		dst[i] = VertexID(rng.Intn(n))
	}
	if err := fault.Set(fault.Rule{Point: fault.PointGraphBuildChunk, Kind: fault.KindError}); err != nil {
		t.Fatal(err)
	}
	var inj *fault.InjectedError
	for _, workers := range []int{1, 4} {
		if _, err := buildCSR(nil, n, src, dst, workers); !errors.As(err, &inj) {
			t.Fatalf("build error at %d workers = %v, want injected", workers, err)
		}
	}
	fault.Reset()
	got, err := buildCSR(nil, n, src, dst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := referenceCSR(n, src, dst); !reflect.DeepEqual(want, got) {
		t.Fatal("post-fault rebuild differs from the reference")
	}
}

// TestBulkEncodeFault covers the encode chunk point on the parallel
// dictionary encode.
func TestBulkEncodeFault(t *testing.T) {
	t.Cleanup(fault.Reset)
	keys := make([]int64, 98304)
	for i := range keys {
		keys[i] = int64(i % 500)
	}
	outs := [][]VertexID{make([]VertexID, len(keys))}
	if err := fault.Set(fault.Rule{Point: fault.PointGraphEncodeChunk, Kind: fault.KindError, After: 1}); err != nil {
		t.Fatal(err)
	}
	d := NewIntDict(0)
	err := d.EncodeColumnsIntCtx(nil, [][]int64{keys}, outs, 4)
	var inj *fault.InjectedError
	if !errors.As(err, &inj) || inj.Point != fault.PointGraphEncodeChunk {
		t.Fatalf("encode error = %v, want injected error at %s", err, fault.PointGraphEncodeChunk)
	}
}
