package graph

import (
	"context"
	"sync/atomic"
)

// Parallelism of the shortest-path runtime. Two runtime phases — the
// CSR build and the batched solve — each have exactly one core, written
// against a worker count: work is partitioned over disjoint output
// ranges and merged in a fixed order, so the output is bit-identical at
// any worker count. The dictionary encode before them is one sequential
// pass (encode.go). A parallelism value of 0 (the default everywhere)
// resolves to runtime.GOMAXPROCS(0); explicit values cap the worker
// count. The size gates below only pick how many workers run a core
// (see par.Gated): small interactive inputs run it on one worker, a
// plain loop with no goroutines. The distribution primitives live in
// internal/par, shared with the relational operators and result
// materialization.
const (
	// minParallelSolveWork gates the solver: the estimated traversal
	// work (source groups × graph size) must reach it.
	minParallelSolveWork = 1 << 17
	// minParallelCSREdges gates CSR construction.
	minParallelCSREdges = 1 << 16
	// cancelCheckInterval is how many queue pops a traversal (BFS
	// dequeues, Dijkstra settles), keys an encode or rows a CSR build
	// runs between Ctx polls. Power of two; at graph-traversal speeds
	// this bounds the latency of a cancellation to well under a
	// millisecond of extra work while keeping the poll itself out of
	// the hot loop.
	cancelCheckInterval = 1 << 12
)

// canceled polls a possibly-nil context.
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelPoller coordinates cooperative cancellation across the workers
// of one parallel phase: the first worker observing a dead context
// flips a shared flag, so its peers bail at their next poll without
// each paying the ctx.Err() synchronization. Workers poll every
// cancelCheckInterval items; a nil context never cancels.
type cancelPoller struct {
	ctx  context.Context
	stop atomic.Bool
}

func (p *cancelPoller) poll() bool {
	if p.ctx == nil {
		return false
	}
	if p.stop.Load() {
		return true
	}
	if p.ctx.Err() != nil {
		p.stop.Store(true)
		return true
	}
	return false
}

// firstError returns the first non-nil error of a phase's per-chunk
// slots, in chunk order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
