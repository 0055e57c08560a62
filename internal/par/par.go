// Package par provides the deterministic work-distribution primitives
// shared by every parallel code path in the engine: the shortest-path
// runtime, graph construction, result materialization and the
// relational operators. The contract is always the same: work is
// partitioned over disjoint output locations and merged (if at all) in
// a fixed order, so results are bit-identical at every worker count.
// With one worker (or one item) every primitive degrades to a plain
// loop with zero goroutine overhead.
//
// A panic in a worker does not kill the process: the pool captures the
// first panic (value and stack, see WorkerPanic) and re-raises it on
// the caller goroutine once all workers have stopped, matching the
// behavior of the equivalent sequential loop.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic carries a panic out of a pool worker: the original panic
// value plus the worker goroutine's stack at the point of panic. When a
// worker panics, the pool lets its peers drain (or bail early, for
// Indexed), then re-panics on the caller goroutine with a *WorkerPanic
// — so a panic inside a parallel region surfaces exactly like a panic
// in the equivalent sequential loop, and recovery layers upstream (the
// engine boundary, the server middleware) need only one mechanism.
// Only the first panic is kept; later ones are dropped.
type WorkerPanic struct {
	// Value is the original value passed to panic.
	Value any
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

func (p *WorkerPanic) String() string { return fmt.Sprintf("par: worker panic: %v", p.Value) }

// Error lets recover sites treat the value uniformly with real errors.
func (p *WorkerPanic) Error() string { return p.String() }

// Unwrap exposes the original panic value when it was an error, so
// errors.As sees through the pool boundary.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// capture wraps a worker body: a panic is recorded into first (keeping
// the earliest one) instead of killing the process. A *WorkerPanic
// from a nested pool passes through unwrapped, so arbitrarily deep
// nesting surfaces the innermost worker's value and stack once.
func capture(first *atomic.Pointer[WorkerPanic], body func()) {
	defer func() {
		if r := recover(); r != nil {
			wp, ok := r.(*WorkerPanic)
			if !ok {
				wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
			}
			first.CompareAndSwap(nil, wp)
		}
	}()
	body()
}

// Workers maps a Parallelism option onto a concrete worker count:
// values <= 0 mean one worker per available CPU.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// gatesOpen makes every size gate grant the full worker budget; see
// OpenGates.
var gatesOpen atomic.Bool

// Gated is the size gate every parallel core consults: it grants one
// worker when work falls below gate, so small inputs never pay
// goroutine overhead, and Workers(parallelism) otherwise. A gate only
// picks the worker count of a core; it never selects a different
// algorithm.
func Gated(parallelism, work, gate int) int {
	if work < gate && !gatesOpen.Load() {
		return 1
	}
	return Workers(parallelism)
}

// OpenGates sets whether every size gate grants the full worker budget
// regardless of input size, and returns the previous setting. It is the
// one override of the gates: tests use it to run the multi-worker cores
// on tiny inputs.
func OpenGates(open bool) bool { return gatesOpen.Swap(open) }

// Indexed drains n indexed work items over the given number of workers
// using an atomic work-stealing cursor. Item order across workers is
// unspecified; callers must write to disjoint output locations per
// item. With one worker (or one item) it degrades to a plain loop.
func Indexed(workers, n int, f func(worker, item int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var firstPanic atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			capture(&firstPanic, func() {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					// A peer already panicked: stop stealing items. The
					// run is doomed, so partial output is fine — but
					// skipping the remaining items bounds how long the
					// caller waits before the panic resurfaces.
					if firstPanic.Load() != nil {
						return
					}
					f(worker, i)
				}
			})
		}(w)
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p)
	}
}

// Ranges splits [0, n) into one contiguous range per worker and runs
// them concurrently; used where each worker owns a chunk of the input
// or output rather than stealing items. Range boundaries depend only on
// (workers, n), so callers that merge per-range results in range order
// get deterministic output for a fixed worker count — and callers whose
// merge is order-insensitive get it for every worker count.
func Ranges(workers, n int, f func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			f(0, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var firstPanic atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			capture(&firstPanic, func() { f(worker, lo, hi) })
		}(w, lo, hi)
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p)
	}
}

// RangeBounds returns the (lo, hi) bounds Ranges would hand to worker w
// of the given worker count; exposed so callers can preallocate
// per-range result slots and merge them in range order.
func RangeBounds(workers, n, w int) (lo, hi int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return 0, n
	}
	chunk := (n + workers - 1) / workers
	lo = w * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// NumRanges returns how many non-empty ranges Ranges produces for the
// given worker count and item count.
func NumRanges(workers, n int) int {
	if n == 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}
