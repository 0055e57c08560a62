package graph

import (
	"context"
	"sync/atomic"

	"graphsql/internal/par"
)

// Parallelism knobs of the shortest-path runtime. A parallelism value
// of 0 (the default everywhere) resolves to runtime.GOMAXPROCS(0);
// explicit values cap the worker count. All parallel paths are gated
// by size thresholds so small interactive inputs never pay goroutine
// overhead, and all of them produce results bit-identical to the
// sequential code: work is only ever partitioned over disjoint output
// ranges, never reordered within one. The distribution primitives
// themselves live in internal/par, shared with the relational
// operators and result materialization.
const (
	// minParallelSolveWork gates the parallel solver: the estimated
	// traversal work (source groups × graph size) must exceed it.
	minParallelSolveWork = 1 << 17
	// minParallelCSREdges gates parallel CSR construction.
	minParallelCSREdges = 1 << 16
	// minParallelEncodeKeys gates parallel dictionary encoding.
	minParallelEncodeKeys = 1 << 15
	// cancelCheckInterval is how many queue pops a traversal (BFS
	// dequeues, Dijkstra settles) runs between Ctx polls. Power of two;
	// at graph-traversal speeds this bounds the latency of a
	// cancellation to well under a millisecond of extra work while
	// keeping the poll itself out of the hot loop.
	cancelCheckInterval = 1 << 12
)

// resolveWorkers maps a Parallelism option onto a concrete worker
// count: values <= 0 mean one worker per available CPU.
func resolveWorkers(parallelism int) int { return par.Workers(parallelism) }

// runIndexed drains n indexed work items over the given number of
// workers using an atomic work-stealing cursor; see par.Indexed.
func runIndexed(workers, n int, f func(worker, item int)) { par.Indexed(workers, n, f) }

// runRanges splits [0, n) into one contiguous range per worker and
// runs them concurrently; see par.Ranges.
func runRanges(workers, n int, f func(worker, lo, hi int)) { par.Ranges(workers, n, f) }

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
