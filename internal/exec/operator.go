package exec

import (
	"context"
	"fmt"

	"graphsql/internal/core"
	"graphsql/internal/fault"
	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// DefaultBatchRows is the row bound of the batches operators emit
// when Context.BatchRows is unset. It matches the wire layer's default
// stream frame size, so a streamed response maps roughly one operator
// batch onto one NDJSON frame.
const DefaultBatchRows = 1024

// Operator is the executor's physical operator: a bound plan node
// compiled into a batch iterator. The life cycle is
// Build → Open → Next* → Close:
//
//   - Open acquires the operator's inputs under whatever lock the
//     caller holds — base-table scans take a storage.Chunk.Snapshot,
//     GraphMatch resolves (and refreshes) its cached graph index — so
//     everything after Open runs without the catalog lock.
//   - Next returns the next batch of at most Context.BatchRows rows,
//     or (nil, nil) once exhausted. Cancellation is polled at every
//     Next, so a canceled query unwinds at the next batch boundary.
//   - Close releases the operator and its children and ends its trace
//     span. Close is idempotent and must be called exactly once per
//     Build, even when Open failed.
//
// Pipeline operators (scan, filter, project, unnest, limit, UNION ALL,
// rename) transform one batch at a time; pipeline breakers (join,
// GraphMatch, aggregate, sort, distinct, the deduplicating set
// operations, CTE bodies) drain their inputs batch-at-a-time into one
// chunk on the first Next, run their parallel core over it once, and
// window the result back out.
type Operator interface {
	// Schema is the operator's output schema, available before Open so
	// consumers can emit result headers ahead of the first batch.
	Schema() storage.Schema
	// Open prepares the operator for iteration (see type comment).
	Open(ctx *Context) error
	// Next returns the next batch, or (nil, nil) when exhausted.
	Next() (*storage.Chunk, error)
	// Close releases the operator tree; idempotent.
	Close() error
}

// Build compiles a bound plan into an operator tree without opening
// it. The same Context must be passed to the root's Open.
func Build(n plan.Node, ctx *Context) (Operator, error) {
	return buildOp(n, ctx.orDefault())
}

func buildOp(n plan.Node, ctx *Context) (Operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return &scanOp{windowOp: newWindow(n), scan: t}, nil
	case *plan.ChunkScan:
		return &chunkOp{windowOp: newWindow(n), src: t.Chunk}, nil
	case *plan.Rename:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &renameOp{opBase: newBase(n), child: child}, nil
	case *plan.Shared:
		st := ctx.sharedState(t)
		if st.op == nil {
			op, err := buildOp(t.Input, ctx)
			if err != nil {
				return nil, err
			}
			st.op = op
		}
		op := &sharedOp{windowOp: newWindow(n), state: st}
		op.compute = op.drainShared
		return op, nil
	case *plan.Filter:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &filterOp{opBase: newBase(n), f: t, child: child}, nil
	case *plan.Project:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &projectOp{opBase: newBase(n), p: t, child: child}, nil
	case *plan.Unnest:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &unnestOp{opBase: newBase(n), u: t, child: child}, nil
	case *plan.Limit:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &limitOp{opBase: newBase(n), l: t, child: child}, nil
	case *plan.GraphMatch:
		input, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		edge, err := buildOp(t.Edge, ctx)
		if err != nil {
			return nil, err
		}
		op := &graphMatchOp{windowOp: newWindow(n), g: t, input: input, edge: edge}
		op.compute = op.solve
		return op, nil
	case *plan.SetOp:
		left, err := buildOp(t.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := buildOp(t.Right, ctx)
		if err != nil {
			return nil, err
		}
		if t.Op == "UNION" && t.All {
			// UNION ALL is the one set operation that pipelines: it is
			// pure concatenation, the merge operator shard routing will
			// compose over.
			return &unionAllOp{opBase: newBase(n), left: left, right: right}, nil
		}
		return newBreaker(n, []Operator{left, right}, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return setOpCore(t, ins[0], ins[1], ctx)
		}), nil
	case *plan.Join:
		left, err := buildOp(t.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := buildOp(t.Right, ctx)
		if err != nil {
			return nil, err
		}
		return newBreaker(n, []Operator{left, right}, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return joinCore(t, ins[0], ins[1], ctx)
		}), nil
	case *plan.Aggregate:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return newBreaker(n, []Operator{child}, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return aggregateCore(t, ins[0], ctx)
		}), nil
	case *plan.Sort:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return newBreaker(n, []Operator{child}, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return sortCore(t, ins[0], ctx)
		}), nil
	case *plan.Distinct:
		child, err := buildOp(t.Input, ctx)
		if err != nil {
			return nil, err
		}
		return newBreaker(n, []Operator{child}, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return distinctCore(t, ins[0], ctx)
		}), nil
	}
	return nil, planNodeError(n)
}

// opBase carries the cross-cutting concerns every operator shares: the
// schema, the execution context captured at Open, and the operator's
// trace span (opened at Open, fed per batch, ended at exhaustion or
// Close).
type opBase struct {
	describe string
	sch      storage.Schema
	ctx      *Context
	tr       *trace.Trace
	sp       trace.SpanID
	rows     int64
	spanDone bool
}

func newBase(n plan.Node) opBase {
	return opBase{describe: n.Describe(), sch: n.Schema()}
}

// Schema implements Operator.
func (b *opBase) Schema() storage.Schema { return b.sch }

// openBase records the execution context and opens this operator's
// trace span under the current parent, redirecting ctx.TraceSpan at it
// so children opened before the returned restore func runs nest under
// it, mirroring the plan tree.
func (b *opBase) openBase(ctx *Context) func() {
	b.ctx = ctx
	b.tr = ctx.Trace
	if b.tr == nil {
		return func() {}
	}
	parent := ctx.TraceSpan
	b.sp = b.tr.Begin(parent, b.describe)
	ctx.TraceSpan = b.sp
	return func() { ctx.TraceSpan = parent }
}

// openCheck is the per-operator admission check, fired once per
// operator at Open: cancellation first, then the exec.operator fault
// point.
func (b *opBase) openCheck() error {
	if err := b.ctx.Canceled(); err != nil {
		return err
	}
	return fault.Inject(fault.PointExecOperator)
}

// step is the per-Next check: cancellation is polled at every batch
// boundary, and the exec.batch fault point can delay or fail the
// stream mid-flight.
func (b *opBase) step() error {
	if err := b.ctx.Canceled(); err != nil {
		return err
	}
	return fault.Inject(fault.PointExecBatch)
}

// emit accounts one outgoing batch against the operator's span
// (cumulative rows, batch count) and the test observer; a nil chunk
// marks exhaustion: it records the final row count — so an operator
// that produced nothing still reports rows=0 — and ends the span so
// recorded operator times cover production, not consumer lifetime.
func (b *opBase) emit(c *storage.Chunk) *storage.Chunk {
	if c == nil {
		if b.tr != nil && !b.spanDone {
			b.tr.SetRows(b.sp, b.rows)
		}
		b.endSpan()
		return nil
	}
	if b.tr != nil {
		b.rows += int64(c.NumRows())
		b.tr.SetRows(b.sp, b.rows)
		b.tr.AddBatch(b.sp)
	}
	if obs := batchObserver; obs != nil {
		obs(b.describe, c.NumRows())
	}
	return c
}

func (b *opBase) endSpan() {
	if b.tr != nil && !b.spanDone {
		b.spanDone = true
		b.tr.End(b.sp)
	}
}

// batchObserver, when non-nil, sees every batch an operator emits;
// see SetBatchObserver.
var batchObserver func(op string, rows int)

// SetBatchObserver installs a hook observing every (operator describe
// line, batch row count) pair the executor emits and returns the
// previous hook. Intended for tests asserting intermediate-result
// bounds; not safe to call concurrently with query execution.
func SetBatchObserver(f func(op string, rows int)) func(op string, rows int) {
	prev := batchObserver
	batchObserver = f
	return prev
}

// materializer is implemented by operators that can hand over their
// entire remaining output as one chunk without per-batch copying:
// sources that only window an existing chunk (scans, CTE results) and
// breakers that hold their materialized output anyway. drainInput uses
// it so a breaker consuming a scan — or a buffered query's final drain —
// sees a zero-copy view instead of re-concatenated batches.
type materializer interface {
	materialize() (*storage.Chunk, error)
}

// drainInput fully materializes the remaining output of an open
// operator. Batches are concatenated into fresh columns (a batch is
// typically a zero-copy view whose backing arrays must not be appended
// to); a single-batch result is returned as-is, and zero batches yield
// an empty chunk with the operator's schema.
func drainInput(op Operator) (*storage.Chunk, error) {
	if m, ok := op.(materializer); ok {
		return m.materialize()
	}
	var first, out *storage.Chunk
	for {
		c, err := op.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		if first == nil {
			first = c
			continue
		}
		if out == nil {
			out = emptyLike(first)
			out.Extend(first)
		}
		out.Extend(c)
	}
	if out != nil {
		return out, nil
	}
	if first != nil {
		return first, nil
	}
	return storage.NewChunk(op.Schema()), nil
}

// emptyLike returns an empty chunk whose columns match c's kinds (not
// the schema's declared kinds, which an expression may refine).
func emptyLike(c *storage.Chunk) *storage.Chunk {
	out := &storage.Chunk{Schema: c.Schema, Cols: make([]*storage.Column, len(c.Cols))}
	for i, col := range c.Cols {
		out.Cols[i] = storage.NewColumn(col.Kind, 0)
	}
	return out
}

// outWindow hands out bounded zero-copy windows of a materialized
// chunk; breakers use it to re-batch their output.
type outWindow struct {
	chunk *storage.Chunk
	pos   int
}

func (w *outWindow) next(batch int) *storage.Chunk {
	n := w.chunk.NumRows()
	if w.pos >= n {
		return nil
	}
	hi := w.pos + batch
	if hi > n {
		hi = n
	}
	c := w.chunk.Slice(w.pos, hi)
	w.pos = hi
	return c
}

// rest returns everything not yet windowed out as one chunk.
func (w *outWindow) rest() *storage.Chunk {
	n := w.chunk.NumRows()
	if w.pos == 0 {
		w.pos = n
		return w.chunk
	}
	c := w.chunk.Slice(w.pos, n)
	w.pos = n
	if c.NumRows() == 0 {
		return nil
	}
	return c
}

// windowOp is the shared body of every operator that holds its whole
// output as one chunk and hands it out in bounded windows: the scans
// (chunk set at Open) and the breakers (chunk produced by compute on
// the first pull). It implements Next and the materializer drain once
// for all of them.
type windowOp struct {
	opBase
	win outWindow
	// compute fills win.chunk on the first Next or materialize; scans
	// leave it nil because Open already did.
	compute func() error
}

func newWindow(n plan.Node) windowOp { return windowOp{opBase: newBase(n)} }

// pull is the per-call prologue of Next and materialize: the batch
// boundary check, then the one-time compute.
func (o *windowOp) pull() error {
	if err := o.step(); err != nil {
		return err
	}
	if o.win.chunk == nil {
		return o.compute()
	}
	return nil
}

func (o *windowOp) Next() (*storage.Chunk, error) {
	if err := o.pull(); err != nil {
		return nil, err
	}
	return o.emit(o.win.next(o.ctx.batchRows())), nil
}

func (o *windowOp) materialize() (*storage.Chunk, error) {
	if err := o.pull(); err != nil {
		return nil, err
	}
	c := o.win.rest()
	if c == nil {
		c = storage.NewChunk(o.sch)
	}
	o.emit(c)
	return c, nil
}

// ---------------------------------------------------------------------------
// Pipeline sources

// scanOp windows a base table. Open takes a length-clamped view of it
// (storage.Chunk.Slice) under the caller's lock, so the batches stay
// valid — and isolated from concurrent INSERT/DELETE — after the lock
// is released.
type scanOp struct {
	windowOp
	scan *plan.Scan
}

func (o *scanOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	o.win.chunk = (&storage.Chunk{Schema: o.scan.Sch, Cols: o.scan.Table.Cols}).Slice(0, o.scan.Table.NumRows())
	return nil
}

func (o *scanOp) Close() error {
	o.endSpan()
	return nil
}

// chunkOp windows an already-materialized chunk (ChunkScan).
type chunkOp struct {
	windowOp
	src *storage.Chunk
}

func (o *chunkOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	o.win.chunk = o.src
	return nil
}

func (o *chunkOp) Close() error {
	o.endSpan()
	return nil
}

// ---------------------------------------------------------------------------
// Pipeline transforms

// renameOp relabels its child's batches under the derived-table or CTE
// alias schema; zero cost per batch.
type renameOp struct {
	opBase
	child Operator
}

func (o *renameOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	return o.child.Open(ctx)
}

func (o *renameOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	in, err := o.child.Next()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return o.emit(nil), nil
	}
	return o.emit(&storage.Chunk{Schema: o.sch, Cols: in.Cols}), nil
}

func (o *renameOp) materialize() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	in, err := drainInput(o.child)
	if err != nil {
		return nil, err
	}
	out := &storage.Chunk{Schema: o.sch, Cols: in.Cols}
	o.emit(out)
	return out, nil
}

func (o *renameOp) Close() error {
	err := o.child.Close()
	o.endSpan()
	return err
}

// filterOp evaluates the predicate per batch and emits the surviving
// rows; batches with no survivors are skipped, so consumers never see
// empty batches.
type filterOp struct {
	opBase
	f     *plan.Filter
	child Operator
}

func (o *filterOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	return o.child.Open(ctx)
}

func (o *filterOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	for {
		in, err := o.child.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return o.emit(nil), nil
		}
		out, err := filterCore(o.f, in, o.ctx)
		if err != nil {
			return nil, err
		}
		if out.NumRows() > 0 {
			return o.emit(out), nil
		}
	}
}

func (o *filterOp) Close() error {
	err := o.child.Close()
	o.endSpan()
	return err
}

// projectOp evaluates the projection expressions per batch. Scalar
// expressions are row-local, so per-batch evaluation concatenates to
// exactly the whole-input evaluation.
type projectOp struct {
	opBase
	p     *plan.Project
	child Operator
}

func (o *projectOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	return o.child.Open(ctx)
}

func (o *projectOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	in, err := o.child.Next()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return o.emit(nil), nil
	}
	out, err := projectCore(o.p, in, o.ctx)
	if err != nil {
		return nil, err
	}
	return o.emit(out), nil
}

func (o *projectOp) Close() error {
	err := o.child.Close()
	o.endSpan()
	return err
}

// unnestOp expands nested-table paths incrementally: it fills each
// output batch up to the batch bound and remembers its position inside
// the current input row's path, so even one row with a huge path never
// forces an unbounded batch.
type unnestOp struct {
	opBase
	u     *plan.Unnest
	child Operator
	in    *storage.Chunk
	pc    *storage.Column
	row   int
	edge  int
}

func (o *unnestOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	return o.child.Open(ctx)
}

func (o *unnestOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	batch := o.ctx.batchRows()
	out := storage.NewChunk(o.u.Sch)
	nPathCols := len(o.u.PathSchema)
	appendRow := func(row int, edge []types.Value, ord int64) {
		inWidth := len(o.in.Cols)
		for c := 0; c < inWidth; c++ {
			out.Cols[c].Append(o.in.Cols[c].Get(row))
		}
		if edge == nil {
			for c := 0; c < nPathCols; c++ {
				out.Cols[inWidth+c].AppendNull()
			}
			if o.u.Ordinality {
				out.Cols[inWidth+nPathCols].AppendNull()
			}
			return
		}
		for c := 0; c < nPathCols; c++ {
			out.Cols[inWidth+c].Append(edge[c])
		}
		if o.u.Ordinality {
			out.Cols[inWidth+nPathCols].AppendInt(ord)
		}
	}
	for out.NumRows() < batch {
		if o.in == nil || o.row >= o.in.NumRows() {
			in, err := o.child.Next()
			if err != nil {
				return nil, err
			}
			if in == nil {
				o.in = nil
				break
			}
			pc, err := o.u.PathExpr.Eval(o.ctx.Expr, in)
			if err != nil {
				return nil, err
			}
			o.in, o.pc, o.row, o.edge = in, pc, 0, 0
		}
		row := o.row
		if o.pc.IsNull(row) || o.pc.Paths[row].Len() == 0 {
			if o.u.Outer {
				appendRow(row, nil, 0)
			}
			o.row++
			continue
		}
		p := o.pc.Paths[row]
		for o.edge < len(p.Rows) && out.NumRows() < batch {
			appendRow(row, p.Rows[o.edge], int64(o.edge+1))
			o.edge++
		}
		if o.edge >= len(p.Rows) {
			o.row++
			o.edge = 0
		}
	}
	if out.NumRows() == 0 {
		return o.emit(nil), nil
	}
	return o.emit(out), nil
}

func (o *unnestOp) Close() error {
	err := o.child.Close()
	o.endSpan()
	return err
}

// limitOp skips and truncates without materializing: once the count is
// exhausted it stops pulling its child entirely.
type limitOp struct {
	opBase
	l         *plan.Limit
	child     Operator
	skip      int
	remain    int
	unlimited bool
	done      bool
}

func (o *limitOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	if err := o.child.Open(ctx); err != nil {
		return err
	}
	skip, count, unlimited, err := limitBounds(o.l, ctx)
	if err != nil {
		return err
	}
	o.skip, o.remain, o.unlimited = skip, count, unlimited
	return nil
}

func (o *limitOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	if o.done || (!o.unlimited && o.remain <= 0) {
		o.done = true
		return o.emit(nil), nil
	}
	for {
		in, err := o.child.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			o.done = true
			return o.emit(nil), nil
		}
		n := in.NumRows()
		if o.skip >= n {
			o.skip -= n
			continue
		}
		if o.skip > 0 {
			in = in.Slice(o.skip, n)
			o.skip = 0
			n = in.NumRows()
		}
		if !o.unlimited && n > o.remain {
			in = in.Slice(0, o.remain)
			n = o.remain
		}
		if !o.unlimited {
			o.remain -= n
		}
		return o.emit(in), nil
	}
}

func (o *limitOp) Close() error {
	err := o.child.Close()
	o.endSpan()
	return err
}

// unionAllOp concatenates its inputs: all left batches, then all right
// batches relabeled to the left schema — the composable merge operator
// a shard-scatter coordinator stacks results with.
type unionAllOp struct {
	opBase
	left, right Operator
	onRight     bool
}

func (o *unionAllOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	if err := o.left.Open(ctx); err != nil {
		return err
	}
	if err := o.right.Open(ctx); err != nil {
		return err
	}
	if nl, nr := len(o.left.Schema()), len(o.right.Schema()); nl != nr {
		return fmt.Errorf("UNION: operands have %d and %d columns", nl, nr)
	}
	return nil
}

func (o *unionAllOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	for {
		src := o.left
		if o.onRight {
			src = o.right
		}
		in, err := src.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			if !o.onRight {
				o.onRight = true
				continue
			}
			return o.emit(nil), nil
		}
		return o.emit(&storage.Chunk{Schema: o.sch, Cols: in.Cols}), nil
	}
}

func (o *unionAllOp) Close() error {
	lerr := o.left.Close()
	rerr := o.right.Close()
	o.endSpan()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// ---------------------------------------------------------------------------
// Pipeline breakers

// breakerOp is the generic pipeline breaker: it drains its children
// into materialized chunks on the first pull, runs the operator's
// parallel core over them once, and windows the output back into
// batches.
type breakerOp struct {
	windowOp
	children []Operator
	eval     func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error)
}

func newBreaker(n plan.Node, children []Operator, eval func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error)) *breakerOp {
	op := &breakerOp{windowOp: newWindow(n), children: children, eval: eval}
	op.compute = op.run
	return op
}

func (o *breakerOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	for _, c := range o.children {
		if err := c.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

// run drains the inputs and runs the core. Children are closed as soon
// as they are drained, so their trace spans report production time, not
// the breaker's lifetime.
func (o *breakerOp) run() error {
	ins := make([]*storage.Chunk, len(o.children))
	for i, c := range o.children {
		in, err := drainInput(c)
		if err != nil {
			return err
		}
		c.Close()
		ins[i] = in
	}
	out, err := o.eval(o.ctx, ins)
	if err != nil {
		return err
	}
	o.win.chunk = out
	return nil
}

func (o *breakerOp) Close() error {
	var err error
	for _, c := range o.children {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	o.endSpan()
	return err
}

// graphMatchOp is the pull form of the paper's graph select σ̂. Open
// resolves — and refreshes — the cached dynamic graph index under the
// caller's lock; the solve itself runs at the first Next, lock-free
// under the index's own read lock. Without an index the edge subplan
// is drained and a throwaway graph is built.
//
// Relaxation: with a cached index, a solve that runs after the
// caller's lock was released may observe edges appended by writes that
// committed after this statement's snapshot (the index delta absorbs
// them). Reads and writes racing a streamed drain already have no
// serialization point.
type graphMatchOp struct {
	windowOp
	g     *plan.GraphMatch
	input Operator
	edge  Operator
	dg    *core.DynamicGraph
}

func (o *graphMatchOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	if err := o.input.Open(ctx); err != nil {
		return err
	}
	if o.tr != nil {
		o.tr.SetWorkers(o.sp, par.Workers(ctx.Parallelism))
	}
	// A cached dynamic index serves scans of indexed base tables; rows
	// inserted since the snapshot are absorbed into its delta here,
	// under the caller's catalog lock (the refresh walks the live table
	// chunk and must not race writers).
	if scan, ok := o.g.Edge.(*plan.Scan); ok && ctx.GraphIndexes != nil {
		if dg, ok := ctx.GraphIndexes[GraphIndexKey(scan.Table.Name, o.g.SrcIdx, o.g.DstIdx)]; ok {
			before := dg.AppliedRows()
			rebuilt, err := dg.RefreshCtx(o.solverCtx(), scan.Table.Chunk())
			if err != nil {
				return err
			}
			switch {
			case rebuilt:
				o.tr.SetIndex(o.sp, trace.IndexRebuild)
			case dg.AppliedRows() != before:
				o.tr.SetIndex(o.sp, trace.IndexRefresh)
			default:
				o.tr.SetIndex(o.sp, trace.IndexHit)
			}
			o.dg = dg
			return nil
		}
	}
	return o.edge.Open(ctx)
}

// solverCtx returns the std context solver calls receive, carrying the
// trace and this operator's span so per-level frontier samples attach
// under it.
func (o *graphMatchOp) solverCtx() context.Context {
	stdctx := o.ctx.Ctx
	if o.tr != nil {
		stdctx = trace.NewContext(stdctx, o.tr, o.sp)
	}
	return stdctx
}

func (o *graphMatchOp) solve() error {
	in, err := drainInput(o.input)
	if err != nil {
		return err
	}
	o.input.Close()
	xc, err := o.g.X.Eval(o.ctx.Expr, in)
	if err != nil {
		return err
	}
	yc, err := o.g.Y.Eval(o.ctx.Expr, in)
	if err != nil {
		return err
	}
	stdctx := o.solverCtx()
	var out *storage.Chunk
	if o.dg != nil {
		out, err = o.dg.MatchCtx(stdctx, o.g, in, xc, yc, o.ctx.Expr)
	} else {
		var edges *storage.Chunk
		edges, err = drainInput(o.edge)
		if err != nil {
			return err
		}
		o.edge.Close()
		var pg *core.PreparedGraph
		pg, err = core.BuildGraphCtx(stdctx, edges, o.g.SrcIdx, o.g.DstIdx, o.ctx.Parallelism)
		if err != nil {
			return err
		}
		o.tr.SetGraphBuilt(o.sp, pg.NumVertices(), pg.NumEdges())
		out, err = pg.MatchCtx(stdctx, o.g, in, xc, yc, o.ctx.Expr)
	}
	if err != nil {
		return err
	}
	o.win.chunk = out
	return nil
}

func (o *graphMatchOp) Close() error {
	ierr := o.input.Close()
	eerr := o.edge.Close()
	o.endSpan()
	if ierr != nil {
		return ierr
	}
	return eerr
}

// sharedState is the once-per-execution materialization of a CTE body,
// shared by every sharedOp referencing the same plan node.
type sharedState struct {
	op     Operator
	opened bool
	done   bool
	closed bool
	chunk  *storage.Chunk
}

// sharedOp serves one reference to a Shared (CTE) subplan. The first
// reference to open also opens — and, at first Next, drains — the
// shared subtree; every reference then windows the one materialized
// chunk independently.
type sharedOp struct {
	windowOp
	state *sharedState
}

func (o *sharedOp) Open(ctx *Context) error {
	defer o.openBase(ctx)()
	if err := o.openCheck(); err != nil {
		return err
	}
	if !o.state.opened {
		o.state.opened = true
		return o.state.op.Open(ctx)
	}
	return nil
}

// drainShared materializes the shared subtree unless another reference
// already did, then points this reference's window at the result.
func (o *sharedOp) drainShared() error {
	st := o.state
	if !st.done {
		chunk, err := drainInput(st.op)
		if err != nil {
			return err
		}
		st.op.Close()
		st.closed = true
		st.chunk = chunk
		st.done = true
	}
	o.win.chunk = st.chunk
	return nil
}

func (o *sharedOp) Close() error {
	var err error
	if o.state.opened && !o.state.closed {
		err = o.state.op.Close()
		o.state.closed = true
	}
	o.endSpan()
	return err
}
