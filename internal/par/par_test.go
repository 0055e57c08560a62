package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// recoverWorkerPanic runs f and returns the *WorkerPanic it re-raised,
// or nil when f returned normally.
func recoverWorkerPanic(t *testing.T, f func()) (wp *WorkerPanic) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			wp, ok = r.(*WorkerPanic)
			if !ok {
				t.Fatalf("re-raised value is %T (%v), want *WorkerPanic", r, r)
			}
		}
	}()
	f()
	return nil
}

type testPanicValue struct{ item int }

func (v testPanicValue) Error() string { return "test panic value" }

func TestIndexedWorkerPanicPropagates(t *testing.T) {
	var done atomic.Int64
	wp := recoverWorkerPanic(t, func() {
		Indexed(4, 64, func(worker, item int) {
			if item == 17 {
				panic(testPanicValue{item: item})
			}
			done.Add(1)
		})
	})
	if wp == nil {
		t.Fatal("worker panic was swallowed")
	}
	if v, ok := wp.Value.(testPanicValue); !ok || v.item != 17 {
		t.Fatalf("panic value = %#v, want testPanicValue{17}", wp.Value)
	}
	if !strings.Contains(string(wp.Stack), "TestIndexedWorkerPanicPropagates") {
		t.Fatalf("stack does not name the panicking frame:\n%s", wp.Stack)
	}
	// The panic re-raises only after every worker has stopped, so no
	// worker can still be mutating shared state.
	if n := done.Load(); n >= 64 {
		t.Fatalf("done = %d, want < 64 (panicking item must not count)", n)
	}
}

func TestIndexedPanicStopsPeers(t *testing.T) {
	// The first item panics; peers must bail out well before draining a
	// large item count. The bound is loose (workers may each grab a few
	// items before observing the flag) but catches a pool that keeps
	// grinding through all items.
	var done atomic.Int64
	wp := recoverWorkerPanic(t, func() {
		Indexed(4, 1<<20, func(worker, item int) {
			if item == 0 {
				panic("early")
			}
			done.Add(1)
		})
	})
	if wp == nil {
		t.Fatal("worker panic was swallowed")
	}
	if n := done.Load(); n > 1<<19 {
		t.Fatalf("peers drained %d items after panic, want early bail", n)
	}
}

func TestRangesWorkerPanicPropagates(t *testing.T) {
	wp := recoverWorkerPanic(t, func() {
		Ranges(4, 100, func(worker, lo, hi int) {
			if lo <= 50 && 50 < hi {
				panic(errors.New("range boom"))
			}
		})
	})
	if wp == nil {
		t.Fatal("worker panic was swallowed")
	}
	if err, ok := wp.Value.(error); !ok || err.Error() != "range boom" {
		t.Fatalf("panic value = %#v, want range boom error", wp.Value)
	}
	if !strings.Contains(string(wp.Stack), "TestRangesWorkerPanicPropagates") {
		t.Fatalf("stack does not name the panicking frame:\n%s", wp.Stack)
	}
}

func TestNestedPoolsDoNotDoubleWrap(t *testing.T) {
	wp := recoverWorkerPanic(t, func() {
		Ranges(2, 2, func(worker, lo, hi int) {
			Indexed(2, 8, func(w, item int) {
				if worker == 0 && item == 3 {
					panic("inner")
				}
			})
		})
	})
	if wp == nil {
		t.Fatal("worker panic was swallowed")
	}
	if wp.Value != "inner" {
		t.Fatalf("panic value = %#v, want the inner pool's original value", wp.Value)
	}
	if strings.Contains(string(wp.Stack), "WorkerPanic") {
		t.Fatalf("stack was re-captured at the outer pool:\n%s", wp.Stack)
	}
}

func TestSequentialPathPanicsUnwrapped(t *testing.T) {
	// With one worker the primitives are plain loops; a panic must
	// surface as the original value, not a *WorkerPanic.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		if r != "seq" {
			t.Fatalf("recovered %#v, want the original value", r)
		}
	}()
	Indexed(1, 4, func(worker, item int) {
		if item == 2 {
			panic("seq")
		}
	})
}

func TestWorkerPanicUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	wp := &WorkerPanic{Value: sentinel}
	if !errors.Is(wp, sentinel) {
		t.Fatal("errors.Is does not see through WorkerPanic")
	}
	if (&WorkerPanic{Value: "not an error"}).Unwrap() != nil {
		t.Fatal("non-error panic value must not unwrap")
	}
}

func TestNoPanicNoOverhead(t *testing.T) {
	// Sanity: the capture path leaves normal runs untouched.
	var sum atomic.Int64
	Indexed(4, 100, func(worker, item int) { sum.Add(int64(item)) })
	if got := sum.Load(); got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
	var rsum atomic.Int64
	Ranges(4, 100, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			rsum.Add(int64(i))
		}
	})
	if got := rsum.Load(); got != 4950 {
		t.Fatalf("ranges sum = %d, want 4950", got)
	}
}

// TestGatedOpenGates pins the one size gate: one worker below the gate,
// the budget at and above it, and the budget everywhere once the gates
// are open.
func TestGatedOpenGates(t *testing.T) {
	if got := Gated(3, 9, 10); got != 1 {
		t.Fatalf("below the gate: %d workers, want 1", got)
	}
	if got := Gated(3, 10, 10); got != 3 {
		t.Fatalf("at the gate: %d workers, want 3", got)
	}
	prev := OpenGates(true)
	defer OpenGates(prev)
	if got := Gated(3, 0, 10); got != 3 {
		t.Fatalf("gates open: %d workers, want 3", got)
	}
}
