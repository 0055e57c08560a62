package exec

import (
	"context"
	"fmt"

	"graphsql/internal/core"
	"graphsql/internal/expr"
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
//     or (nil, nil) once exhausted. The batch is valid until the
//     operator returns its next one (see the package doc).
//     Cancellation is polled at every Next, so a canceled query
//     unwinds at the next batch boundary.
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

// buildOp builds the node's children in plan order, then the operator
// over them. A Shared (CTE) node builds its body once per execution;
// every reference to it windows that body's one materialization.
func buildOp(n plan.Node, ctx *Context) (Operator, error) {
	if t, ok := n.(*plan.Shared); ok {
		st := ctx.sharedState(t)
		if st.op == nil {
			op, err := buildOp(t.Input, ctx)
			if err != nil {
				return nil, err
			}
			st.op = op
		}
		op := &sharedOp{windowOp: windowOp{opBase: newBase(n, nil, ctx)}, state: st}
		op.compute = op.drainShared
		return op, nil
	}
	k := 0
	for n.Child(k) != nil {
		k++
	}
	in := make([]Operator, k)
	for i := range in {
		op, err := buildOp(n.Child(i), ctx)
		if err != nil {
			return nil, err
		}
		in[i] = op
	}
	b := newBase(n, in, ctx)
	switch t := n.(type) {
	case *plan.Scan:
		return &scanOp{windowOp: windowOp{opBase: b}, scan: t}, nil
	case *plan.ChunkScan:
		return chunkSource(b, t.Chunk), nil
	case *plan.Rename:
		return &renameOp{opBase: b}, nil
	case *plan.Filter:
		if scan, ok := in[0].(*scanOp); ok {
			scan.pred = t.Pred
		}
		return &filterOp{opBase: b, f: t}, nil
	case *plan.Project:
		return &projectOp{opBase: b, p: t}, nil
	case *plan.Unnest:
		return &unnestOp{opBase: b, u: t}, nil
	case *plan.Limit:
		return &limitOp{opBase: b, l: t}, nil
	case *plan.GraphMatch:
		op := &graphMatchOp{windowOp: windowOp{opBase: b}, g: t}
		op.compute = op.solve
		return op, nil
	case *plan.SetOp:
		if t.Op == "UNION" && t.All {
			// UNION ALL is the one set operation that pipelines: it is
			// pure concatenation, the merge operator shard routing will
			// compose over.
			return &unionAllOp{opBase: b}, nil
		}
		return breaker(b, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return setOpCore(t, ins[0], ins[1], ctx)
		}), nil
	case *plan.Join:
		return breaker(b, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return joinCore(t, ins[0], ins[1], ctx)
		}), nil
	case *plan.Aggregate:
		return breaker(b, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return aggregateCore(t, ins[0], ctx)
		}), nil
	case *plan.Sort:
		return breaker(b, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return sortCore(t, ins[0], ctx)
		}), nil
	case *plan.Distinct:
		return breaker(b, func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error) {
			return distinctCore(t, ins[0], ctx)
		}), nil
	}
	return nil, planNodeError(n)
}

// opBase is the life cycle every operator shares: the schema, the
// operator's inputs, the execution context captured at Open, and the
// operator's trace span (opened at Open, fed per batch, ended at
// exhaustion or Close). An operator overrides Open or Close only to add
// to them.
type opBase struct {
	node plan.Node
	// describe is node's Describe line (see newBase and name).
	describe string
	sch      storage.Schema
	// in holds the operator's inputs in plan order; Open opens them in
	// that order and Close closes them all.
	in       []Operator
	ctx      *Context
	tr       *trace.Trace
	sp       trace.SpanID
	rows     int64
	spanDone bool
}

// newBase renders the operator's Describe line at once when the
// execution is traced, before any span opens, so no span pays for its
// inputs' names; untraced, only the batch observer may ever need it.
func newBase(n plan.Node, in []Operator, ctx *Context) opBase {
	b := opBase{node: n, sch: n.Schema(), in: in}
	if ctx.Trace != nil {
		b.describe = n.Describe()
	}
	return b
}

func (b *opBase) name() string {
	if b.describe == "" {
		b.describe = b.node.Describe()
	}
	return b.describe
}

// Schema implements Operator.
func (b *opBase) Schema() storage.Schema { return b.sch }

// Open implements Operator: it opens the span, runs the admission
// check, then opens the inputs in order under the span.
func (b *opBase) Open(ctx *Context) error {
	parent := b.openSpan(ctx)
	defer func() { ctx.TraceSpan = parent }()
	if err := b.openCheck(); err != nil {
		return err
	}
	for _, c := range b.in {
		if err := c.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Operator: it closes every input, keeping the first
// error, and ends the span. Closing an input twice is harmless, so a
// breaker may close each input as soon as it has drained it.
func (b *opBase) Close() error {
	var err error
	for _, c := range b.in {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	b.endSpan()
	return err
}

// openSpan records the execution context and opens this operator's
// trace span under the current parent, redirecting ctx.TraceSpan at it
// so inputs opened until the caller restores the returned parent nest
// under it, mirroring the plan tree.
func (b *opBase) openSpan(ctx *Context) (parent trace.SpanID) {
	b.ctx = ctx
	b.tr = ctx.Trace
	parent = ctx.TraceSpan
	if b.tr != nil {
		b.sp = b.tr.Begin(parent, b.name())
		ctx.TraceSpan = b.sp
	}
	return parent
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
		obs(b.name(), c.NumRows())
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
// operator; zero batches yield an empty chunk with its schema.
func drainInput(op Operator) (*storage.Chunk, error) {
	if m, ok := op.(materializer); ok {
		return m.materialize()
	}
	c, err := accumulate(func(int) (*storage.Chunk, error) { return op.Next() }, 0)
	if c == nil && err == nil {
		c = storage.NewChunk(op.Schema())
	}
	return c, err
}

// accumulate is the one accumulation loop: it pulls batches of at most
// the rows still wanted until it holds maxRows rows (everything when
// maxRows <= 0) or pull is exhausted, and returns nil if pull had
// nothing. A batch that fills the window alone is returned as it came.
// Otherwise the first batch is copied into fresh columns before the
// next pull, which may overwrite it (see the package doc), and every
// later batch is appended to the copy. Whether that pull is the last
// is not known before it, so a drain (maxRows <= 0) of a one-batch
// input copies its batch too.
func accumulate(pull func(maxRows int) (*storage.Chunk, error), maxRows int) (*storage.Chunk, error) {
	var win *storage.Chunk
	fresh := false // win is a copy, not a pulled batch
	for rows := 0; maxRows <= 0 || rows < maxRows; {
		if win != nil && !fresh {
			first := win
			win, fresh = emptyLike(first), true
			win.Extend(first)
		}
		b, err := pull(maxRows - rows)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		rows += b.NumRows()
		if win == nil {
			win = b
			continue
		}
		win.Extend(b)
	}
	return win, nil
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

// outWindow hands out bounded zero-copy windows of a list of row
// ranges of one chunk: the windows a scan picked of its table view, or
// all of a breaker's output. A window that is all of chunk is chunk
// itself; any other is one view, re-pointed at each window in turn.
type outWindow struct {
	chunk *storage.Chunk
	// ranges are the non-empty row ranges still to hand out, in order;
	// whole backs the one range of a window over all of chunk.
	ranges []rowRange
	whole  [1]rowRange
	view   *storage.Chunk
}

type rowRange struct{ lo, hi int }

// all points the window at every row of c.
func (w *outWindow) all(c *storage.Chunk) {
	w.chunk, w.ranges = c, nil
	if n := c.NumRows(); n > 0 {
		w.whole[0] = rowRange{0, n}
		w.ranges = w.whole[:]
	}
}

// next returns the next window of at most batch rows (the rest of the
// current range when batch <= 0), or nil when no rows are left.
func (w *outWindow) next(batch int) *storage.Chunk {
	if len(w.ranges) == 0 {
		return nil
	}
	r := &w.ranges[0]
	lo, hi := r.lo, r.hi
	if batch > 0 {
		hi = min(lo+batch, hi)
	}
	if r.lo = hi; r.lo == r.hi {
		w.ranges = w.ranges[1:]
	}
	if lo == 0 && hi == w.chunk.NumRows() {
		return w.chunk
	}
	w.view = w.chunk.SliceInto(retire(w.view, true), lo, hi)
	return w.view
}

// rest returns everything not yet windowed out as one chunk: the chunk
// itself while all of it is left, a fresh view when one range is left,
// else the remaining ranges accumulated.
func (w *outWindow) rest() *storage.Chunk {
	n := w.chunk.NumRows()
	switch {
	case n == 0:
		w.ranges = nil
		return w.chunk
	case len(w.ranges) == 1:
		r := w.ranges[0]
		w.ranges = nil
		if r == (rowRange{0, n}) {
			return w.chunk
		}
		return w.chunk.Slice(r.lo, r.hi)
	}
	c, _ := accumulate(func(int) (*storage.Chunk, error) { return w.next(0), nil }, 0)
	return c
}

// windowOp is the shared body of every operator that holds its whole
// output as one chunk and hands it out in bounded windows: the sources
// (a scan windows its table at Open, a chunk source its chunk at Build)
// and the breakers (chunk produced by compute on the first pull). It
// implements Next and the materializer drain once for all of them.
type windowOp struct {
	opBase
	win outWindow
	// compute produces the chunk on the first Next or materialize;
	// sources leave it nil because their window is already set.
	compute func() (*storage.Chunk, error)
}

// chunkSource windows an already-materialized chunk (ChunkScan, and the
// result of a statement that ran to completion).
func chunkSource(b opBase, c *storage.Chunk) *windowOp {
	op := &windowOp{opBase: b}
	op.win.all(c)
	return op
}

// breaker is the generic pipeline breaker: on the first pull it drains
// its inputs into materialized chunks and runs core over them once.
// Each input is closed as soon as it is drained, so its trace span
// reports production time, not the breaker's lifetime.
func breaker(b opBase, core func(ctx *Context, ins []*storage.Chunk) (*storage.Chunk, error)) *windowOp {
	op := &windowOp{opBase: b}
	op.compute = func() (*storage.Chunk, error) {
		ins := make([]*storage.Chunk, len(op.in))
		for i, c := range op.in {
			in, err := drainInput(c)
			if err != nil {
				return nil, err
			}
			c.Close()
			ins[i] = in
		}
		return core(op.ctx, ins)
	}
	return op
}

// pull is the per-call prologue of Next and materialize: the batch
// boundary check, then the one-time compute.
func (o *windowOp) pull() error {
	if err := o.step(); err != nil {
		return err
	}
	if o.win.chunk == nil {
		c, err := o.compute()
		if err != nil {
			return err
		}
		o.win.all(c)
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
//
// A scan under a Filter holds its predicate and reads only the sealed
// windows (storage.ZoneRows rows each) whose zones can satisfy every
// bound the predicate puts on a column (expr.Bounds), plus the partial
// window at the end; a scan with nothing to prune reads the whole
// table. The filter still runs the whole predicate over every batch,
// so it alone decides which rows qualify.
type scanOp struct {
	windowOp
	scan *plan.Scan
	pred expr.Expr
}

func (o *scanOp) Open(ctx *Context) error {
	if err := o.opBase.Open(ctx); err != nil {
		return err
	}
	n := o.scan.Table.NumRows()
	o.win.all((&storage.Chunk{Schema: o.scan.Sch, Cols: o.scan.Table.Cols}).Slice(0, n))
	if o.pred != nil && n >= storage.ZoneRows {
		o.prune(ctx)
	}
	return nil
}

// prune narrows the window to the ranges the zones admit and records on
// the span how many windows they cover when that is fewer than the
// table's.
func (o *scanOp) prune(ctx *Context) {
	view := o.win.chunk
	bounds := expr.Bounds(ctx.Expr, o.pred, view)
	if len(bounds) == 0 {
		return
	}
	zones := make([][]storage.Zone, len(bounds))
	for i, b := range bounds {
		zones[i] = o.scan.Table.Zones(b.Col, view.Cols[b.Col])
	}
	var out []rowRange
	add := func(lo, hi int) {
		if k := len(out); k > 0 && out[k-1].hi == lo {
			out[k-1].hi = hi
		} else {
			out = append(out, rowRange{lo, hi})
		}
	}
	n := view.NumRows()
	sealed := n / storage.ZoneRows
	scanned := 0
windows:
	for w := 0; w < sealed; w++ {
		for i, b := range bounds {
			if !b.Admits(zones[i][w]) {
				continue windows
			}
		}
		scanned++
		add(w*storage.ZoneRows, (w+1)*storage.ZoneRows)
	}
	total := sealed
	if tail := sealed * storage.ZoneRows; tail < n {
		scanned++
		total++
		add(tail, n)
	}
	if scanned < total {
		o.tr.SetWindows(o.sp, scanned, total)
	}
	o.win.ranges = out
}

// ---------------------------------------------------------------------------
// Pipeline transforms

// renameOp relabels its child's batches under the derived-table or CTE
// alias schema; zero cost per batch.
type renameOp struct{ opBase }

func (o *renameOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	in, err := o.in[0].Next()
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
	in, err := drainInput(o.in[0])
	if err != nil {
		return nil, err
	}
	out := &storage.Chunk{Schema: o.sch, Cols: in.Cols}
	o.emit(out)
	return out, nil
}

// filterOp selects each batch's rows with expr.Select — row-local, so
// per-batch selection concatenates to the whole-input result — and
// emits the survivors: a batch that survives whole passes through
// unchanged, any other is gathered into the one output batch the
// filter reuses, and one with no survivors is skipped, so consumers
// never see empty batches. The selection vector is scratch reused
// across batches too.
type filterOp struct {
	opBase
	f   *plan.Filter
	sel []int
	out *storage.Chunk
}

func (o *filterOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	for {
		in, err := o.in[0].Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return o.emit(nil), nil
		}
		if o.sel, err = expr.Select(o.ctx.Expr, o.f.Pred, in, o.sel); err != nil {
			return nil, err
		}
		switch len(o.sel) {
		case 0:
		case in.NumRows():
			return o.emit(in), nil
		default:
			o.out = in.GatherInto(retire(o.out, true), o.sel)
			return o.emit(o.out), nil
		}
	}
}

// projectOp evaluates the projection expressions per batch into the
// one output chunk header it reuses. Scalar expressions are row-local,
// so per-batch evaluation concatenates to exactly the whole-input
// evaluation. A bare column reference evaluates to its input column
// (expr.ColRef.Eval), so it passes through uncopied.
type projectOp struct {
	opBase
	p   *plan.Project
	out *storage.Chunk
}

func (o *projectOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	in, err := o.in[0].Next()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return o.emit(nil), nil
	}
	if o.out = retire(o.out, false); o.out == nil {
		o.out = &storage.Chunk{Schema: o.p.Sch, Cols: make([]*storage.Column, len(o.p.Exprs))}
	}
	for i, e := range o.p.Exprs {
		if o.out.Cols[i], err = e.Eval(o.ctx.Expr, in); err != nil {
			return nil, err
		}
	}
	return o.emit(o.out), nil
}

// unnestOp expands nested-table paths incrementally: it fills each
// output batch up to the batch bound and remembers its position inside
// the current input row's path, so even one row with a huge path never
// forces an unbounded batch.
type unnestOp struct {
	opBase
	u    *plan.Unnest
	cur  *storage.Chunk
	pc   *storage.Column
	row  int
	edge int
}

func (o *unnestOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	batch := o.ctx.batchRows()
	out := storage.NewChunk(o.u.Sch)
	nPathCols := len(o.u.PathSchema)
	appendRow := func(row int, edge []types.Value, ord int64) {
		inWidth := len(o.cur.Cols)
		for c := 0; c < inWidth; c++ {
			out.Cols[c].Append(o.cur.Cols[c].Get(row))
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
		if o.cur == nil || o.row >= o.cur.NumRows() {
			in, err := o.in[0].Next()
			if err != nil {
				return nil, err
			}
			if in == nil {
				o.cur = nil
				break
			}
			pc, err := o.u.PathExpr.Eval(o.ctx.Expr, in)
			if err != nil {
				return nil, err
			}
			o.cur, o.pc, o.row, o.edge = in, pc, 0, 0
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

// limitOp skips and truncates without materializing: once the count is
// exhausted it stops pulling its child entirely.
type limitOp struct {
	opBase
	l         *plan.Limit
	skip      int
	remain    int
	unlimited bool
	done      bool
}

func (o *limitOp) Open(ctx *Context) error {
	if err := o.opBase.Open(ctx); err != nil {
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
		in, err := o.in[0].Next()
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

// unionAllOp concatenates its inputs: all left batches, then all right
// batches relabeled to the left schema — the composable merge operator
// a shard-scatter coordinator stacks results with.
type unionAllOp struct {
	opBase
	cur int // the input being read
}

func (o *unionAllOp) Open(ctx *Context) error {
	if err := o.opBase.Open(ctx); err != nil {
		return err
	}
	if nl, nr := len(o.in[0].Schema()), len(o.in[1].Schema()); nl != nr {
		return fmt.Errorf("UNION: operands have %d and %d columns", nl, nr)
	}
	return nil
}

func (o *unionAllOp) Next() (*storage.Chunk, error) {
	if err := o.step(); err != nil {
		return nil, err
	}
	for ; o.cur < len(o.in); o.cur++ {
		in, err := o.in[o.cur].Next()
		if err != nil {
			return nil, err
		}
		if in != nil {
			return o.emit(&storage.Chunk{Schema: o.sch, Cols: in.Cols}), nil
		}
	}
	return o.emit(nil), nil
}

// ---------------------------------------------------------------------------
// Pipeline breakers

// graphMatchOp is the pull form of the paper's graph select σ̂. Its
// inputs are the pair input and the edge subplan. Open resolves — and
// refreshes — the cached dynamic graph index under the caller's lock;
// the solve itself runs at the first Next, lock-free under the index's
// own read lock. Without an index the edge subplan is drained and a
// throwaway graph is built.
//
// Relaxation: with a cached index, a solve that runs after the
// caller's lock was released may observe edges appended by writes that
// committed after this statement's snapshot (the index delta absorbs
// them). Reads and writes racing a streamed drain already have no
// serialization point.
type graphMatchOp struct {
	windowOp
	g  *plan.GraphMatch
	dg *core.DynamicGraph
}

// Open opens the pair input, then either the cached index or the edge
// input, never both.
func (o *graphMatchOp) Open(ctx *Context) error {
	parent := o.openSpan(ctx)
	defer func() { ctx.TraceSpan = parent }()
	if err := o.openCheck(); err != nil {
		return err
	}
	if err := o.in[0].Open(ctx); err != nil {
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
				o.tr.SetDict(o.sp, dg.DictForm())
			case dg.AppliedRows() != before:
				o.tr.SetIndex(o.sp, trace.IndexRefresh)
			default:
				o.tr.SetIndex(o.sp, trace.IndexHit)
			}
			o.dg = dg
			return nil
		}
	}
	return o.in[1].Open(ctx)
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

func (o *graphMatchOp) solve() (*storage.Chunk, error) {
	input, edge := o.in[0], o.in[1]
	in, err := drainInput(input)
	if err != nil {
		return nil, err
	}
	input.Close()
	xc, err := o.g.X.Eval(o.ctx.Expr, in)
	if err != nil {
		return nil, err
	}
	yc, err := o.g.Y.Eval(o.ctx.Expr, in)
	if err != nil {
		return nil, err
	}
	stdctx := o.solverCtx()
	if o.dg != nil {
		return o.dg.MatchCtx(stdctx, o.g, in, xc, yc, o.ctx.Expr)
	}
	edges, err := drainInput(edge)
	if err != nil {
		return nil, err
	}
	edge.Close()
	pg, err := core.BuildGraphCtx(stdctx, edges, o.g.SrcIdx, o.g.DstIdx, o.ctx.Parallelism)
	if err != nil {
		return nil, err
	}
	o.tr.SetGraphBuilt(o.sp, pg.NumVertices(), pg.NumEdges())
	o.tr.SetDict(o.sp, pg.Dict.Form())
	return pg.MatchCtx(stdctx, o.g, in, xc, yc, o.ctx.Expr)
}

// sharedState is the once-per-execution materialization of a CTE body,
// shared by every sharedOp referencing the same plan node.
type sharedState struct {
	op     Operator
	opened bool
	chunk  *storage.Chunk
}

// sharedOp serves one reference to a Shared (CTE) subplan. The first
// reference to open takes the shared subtree as its input, so it opens
// it under its own span and closes it at its Close; the first to pull
// drains it (and closes it), and every reference then windows the one
// materialized chunk independently.
type sharedOp struct {
	windowOp
	state *sharedState
}

func (o *sharedOp) Open(ctx *Context) error {
	if !o.state.opened {
		o.state.opened = true
		o.in = []Operator{o.state.op}
	}
	return o.opBase.Open(ctx)
}

// drainShared materializes the shared subtree unless another reference
// already did.
func (o *sharedOp) drainShared() (*storage.Chunk, error) {
	st := o.state
	if st.chunk == nil {
		c, err := drainInput(st.op)
		if err != nil {
			return nil, err
		}
		st.op.Close()
		st.chunk = c
	}
	return st.chunk, nil
}
