// Package exec executes bound logical plans over the columnar storage
// layer.
//
// Build compiles a plan into a pull-based Operator tree (Open / Next /
// Close). Pipeline-able operators — scans, filter, projection, UNNEST,
// LIMIT, UNION ALL — produce and consume bounded storage.Chunk batches,
// so intermediate memory stays proportional to batch size × pipeline
// depth and the first batch reaches the consumer before execution
// completes. Pipeline breakers — join, GraphMatch, aggregation, sort,
// distinct, the deduplicating set operations, CTE bodies — drain their
// inputs, run their one deterministic core over the whole input once
// (on as many workers as the size gate grants), and window the output
// back into batches. Results are value-identical at any worker count
// and any batch size; the golden corpus, the batch-size differential
// tests and the relational oracle in internal/testutil pin that down.
package exec

import (
	"context"
	"fmt"
	"math"
	"strings"

	"graphsql/internal/core"
	"graphsql/internal/expr"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// Context carries per-execution state.
type Context struct {
	// Ctx carries optional cancellation (client disconnects, server
	// timeouts). It is polled when each operator opens, at every batch
	// boundary, at the solver's source-group boundaries inside
	// GraphMatch, and inside a single traversal: BFS/Dijkstra poll every
	// 4096 queue pops, so one huge traversal aborts mid-flight. A nil
	// Ctx never cancels.
	Ctx context.Context
	// Expr holds the host parameter bindings.
	Expr *expr.Context
	// GraphIndexes caches dynamic graph indexes keyed by
	// "table(srcIdx,dstIdx)" (lower-cased); see DB.BuildGraphIndex.
	GraphIndexes map[string]*core.DynamicGraph
	// Parallelism is the worker budget for graph construction and
	// batched shortest-path solving; <= 0 means one worker per CPU.
	// The solver spends it across source groups only; each traversal
	// runs on one worker (see graph.Solver).
	Parallelism int
	// Trace, when non-nil, records one span per operator (output rows,
	// wall time, solver frontier levels). TraceSpan is the open span new
	// operator spans attach under; creators that set Trace must set
	// TraceSpan to the parent span (trace.NoSpan for a root). A nil
	// Trace costs nothing on the execution path.
	Trace     *trace.Trace
	TraceSpan trace.SpanID
	// BatchRows bounds the rows per batch operators emit; <= 0 uses
	// DefaultBatchRows.
	BatchRows int
	// shared caches the per-execution state of Shared (CTE) subplans;
	// see sharedOp.
	shared map[*plan.Shared]*sharedState
}

// batchRows resolves the effective batch bound.
func (ctx *Context) batchRows() int {
	if ctx.BatchRows > 0 {
		return ctx.BatchRows
	}
	return DefaultBatchRows
}

// sharedState returns (allocating on first use) the shared
// materialization state for one CTE plan node.
func (ctx *Context) sharedState(t *plan.Shared) *sharedState {
	if ctx.shared == nil {
		ctx.shared = make(map[*plan.Shared]*sharedState)
	}
	st := ctx.shared[t]
	if st == nil {
		st = &sharedState{}
		ctx.shared[t] = st
	}
	return st
}

// GraphIndexKey builds the cache key for a prepared graph on a base
// table.
func GraphIndexKey(table string, srcIdx, dstIdx int) string {
	return fmt.Sprintf("%s(%d,%d)", strings.ToLower(table), srcIdx, dstIdx)
}

// Canceled returns the context's error if the execution was canceled,
// nil otherwise (including when no context was attached).
func (ctx *Context) Canceled() error {
	if ctx.Ctx == nil {
		return nil
	}
	return ctx.Ctx.Err()
}

// orDefault fills in what direct exec callers (tests, embedded use)
// may leave unset, so every operator — and the solver the GraphMatch
// operator hands off to — sees one non-nil context instead of each
// re-deciding.
func (ctx *Context) orDefault() *Context {
	if ctx == nil {
		ctx = &Context{}
	}
	if ctx.Ctx == nil {
		//gsqlvet:allow ctxprop library entry point; engine callers always set Ctx
		ctx.Ctx = context.Background()
	}
	if ctx.Expr == nil {
		ctx.Expr = &expr.Context{}
	}
	return ctx
}

func planNodeError(n plan.Node) error {
	return fmt.Errorf("internal: unknown plan node %T", n)
}

// filterCore applies the predicate to one input chunk; row-local, so
// per-batch application concatenates to the whole-input result.
func filterCore(f *plan.Filter, in *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	pc, err := f.Pred.Eval(ctx.Expr, in)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, in.NumRows())
	for i := range mask {
		mask[i] = !pc.IsNull(i) && pc.Ints[i] != 0
	}
	return in.FilterByMask(mask), nil
}

// projectCore evaluates the projection over one input chunk.
func projectCore(p *plan.Project, in *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	out := &storage.Chunk{Schema: p.Sch, Cols: make([]*storage.Column, len(p.Exprs))}
	for i, e := range p.Exprs {
		c, err := e.Eval(ctx.Expr, in)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = c
	}
	return out, nil
}

// sortCore orders one materialized input chunk.
func sortCore(s *plan.Sort, in *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	n := in.NumRows()
	keys := make([]*storage.Column, len(s.Keys))
	for i, k := range s.Keys {
		c, err := k.Expr.Eval(ctx.Expr, in)
		if err != nil {
			return nil, err
		}
		keys[i] = c
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	less := func(ra, rb int) bool {
		for ki, k := range s.Keys {
			c := keys[ki]
			na, nb := c.IsNull(ra), c.IsNull(rb)
			if na || nb {
				if na && nb {
					continue
				}
				// Default: NULLS LAST ascending, NULLS FIRST when
				// descending (PostgreSQL convention).
				nullsFirst := k.Desc
				if k.NullsFirst == 1 {
					nullsFirst = true
				} else if k.NullsFirst == 0 {
					nullsFirst = false
				}
				if na {
					return nullsFirst
				}
				return !nullsFirst
			}
			cmp := types.Compare(c.Get(ra), c.Get(rb))
			if cmp == 0 {
				continue
			}
			if k.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	}
	// The stable order under a fixed comparator is unique, so the
	// parallel merge sort returns exactly what sort.SliceStable would
	// (and at one worker it is sort.SliceStable).
	workers := ctx.workers(n)
	parallelMergeSort(idx, less, workers)
	return in.Gather(idx, workers), nil
}

// limitBounds evaluates and validates OFFSET/LIMIT. unlimited is true
// when no LIMIT clause is present (count is then meaningless).
func limitBounds(l *plan.Limit, ctx *Context) (skip, count int, unlimited bool, err error) {
	if l.Skip != nil {
		v, err := expr.EvalScalar(l.Skip, ctx.Expr)
		if err != nil {
			return 0, 0, false, err
		}
		if v.Null || v.K != types.KindInt || v.I < 0 {
			return 0, 0, false, fmt.Errorf("OFFSET must be a non-negative integer")
		}
		skip = int(v.I)
	}
	if l.Count == nil {
		return skip, 0, true, nil
	}
	v, err := expr.EvalScalar(l.Count, ctx.Expr)
	if err != nil {
		return 0, 0, false, err
	}
	if v.Null || v.K != types.KindInt || v.I < 0 {
		return 0, 0, false, fmt.Errorf("LIMIT must be a non-negative integer")
	}
	return skip, int(v.I), false, nil
}

// distinctCore deduplicates one materialized input chunk, keeping the
// first occurrence of every row.
func distinctCore(_ *plan.Distinct, in *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	n := in.NumRows()
	workers := ctx.workers(n)
	keep := encodeRowKeys(in.Cols, n, workers).firstOccurrences(workers)
	return in.Gather(keep, workers), nil
}

// appendRowKey appends the encodeKey bytes of row i over cols to buf.
func appendRowKey(buf []byte, cols []*storage.Column, i int) []byte {
	for _, c := range cols {
		buf = encodeKey(buf, c, i)
	}
	return buf
}

// encodeKey appends a type-tagged, self-delimiting encoding of column
// entry i to buf; used for hash keys in joins, grouping, distinct and
// set operations.
func encodeKey(buf []byte, c *storage.Column, i int) []byte {
	if c.IsNull(i) {
		return append(buf, 0xFF)
	}
	switch c.Kind {
	case types.KindFloat:
		buf = append(buf, 1)
		bits := floatBits(c.Floats[i])
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(bits>>s))
		}
	case types.KindString:
		buf = append(buf, 2)
		s := c.Strs[i]
		n := len(s)
		buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		buf = append(buf, s...)
	case types.KindPath:
		buf = append(buf, 3)
		buf = append(buf, c.Get(i).String()...)
		buf = append(buf, 0)
	default:
		buf = append(buf, 4)
		v := uint64(c.Ints[i])
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>s))
		}
	}
	return buf
}

func floatBits(f float64) uint64 {
	// Normalize -0 and NaN payloads for hashing: types.Compare calls
	// every NaN equal, so every NaN must be one key.
	if f == 0 {
		f = 0
	}
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}
