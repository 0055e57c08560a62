package exec

import (
	"context"

	"graphsql/internal/storage"
)

// Cursor is the one form a statement's result takes above the
// executor: the row-batch iterator seam between execution and its
// consumers (the HTTP response sinks, the facade's Rows, the CLI). It
// pulls batches from an open Operator tree. Execution happens *during*
// iteration — the first batch is available before the query finishes —
// and the total row count is unknown until exhaustion. A statement
// without an operator tree of its own (EXPLAIN text, DDL/DML) is a
// one-chunk operator (NewCursor), so every consumer drains every result
// the same way.
//
// Pull is the one pull loop: it hands out the executor's batches as
// they come, typed and uncopied, which is how the wire encoders consume
// a result. Next is an accumulation loop over Pull for consumers that
// want fixed-size windows. Each call polls the cancellation context,
// keeping a disconnecting client's cursor under the same cancellation
// contract as execution itself. A Cursor is not safe for concurrent
// use.
//
// Close releases the underlying operator tree and is idempotent; an
// exhausted or failed cursor closes itself, but consumers that may
// abandon a cursor early must still call Close (the gsqlvet cursorpair
// rule enforces this on request-path packages).
type Cursor struct {
	ctx     context.Context
	op      Operator
	onClose func()
	pend    *storage.Chunk // current batch
	pos     int
	served  int
	known   int // total rows; -1 until exhaustion
	done    bool
	closed  bool
	sticky  error
}

// NewCursor returns a cursor over an already-materialized chunk: a
// chunk source opened on the spot, so the result of a statement that
// executed to completion drains like any operator tree. ctx may be nil
// (never cancels); chunk may be nil (an empty result, e.g. a DDL
// statement). A failure to open — cancellation, an injected fault — is
// the cursor's sticky error.
func NewCursor(ctx context.Context, chunk *storage.Chunk) *Cursor {
	if chunk == nil {
		chunk = &storage.Chunk{}
	}
	op := chunkSource(opBase{describe: "Result", sch: chunk.Schema}, chunk)
	c := NewOperatorCursor(ctx, op, nil)
	if err := op.Open((&Context{Ctx: ctx}).orDefault()); err != nil {
		c.fail(err)
	}
	return c
}

// NewOperatorCursor wraps an already-open operator tree. The cursor
// owns the tree: it closes it at exhaustion, on error, and on Close.
// onClose, if non-nil, runs exactly once when the cursor closes —
// the engine uses it to end the "execute" trace span, whose lifetime
// is the drain, not the open.
func NewOperatorCursor(ctx context.Context, op Operator, onClose func()) *Cursor {
	return &Cursor{ctx: ctx, op: op, onClose: onClose, known: -1}
}

// Schema returns the result schema (nil for an empty result).
func (c *Cursor) Schema() storage.Schema { return c.op.Schema() }

// NumRows returns the total row count, or -1 while it is still
// unknown: a cursor only learns its total at exhaustion.
func (c *Cursor) NumRows() int { return c.known }

// Pull is the cursor's one pull: it returns the rest of the current
// executor batch — at most maxRows rows of it, all of it when maxRows
// <= 0 — pulling the next batch once the current one is spent, or
// (nil, nil) once the cursor is exhausted. It never crosses a batch
// boundary: a batch taken whole is the operator's own chunk, a part of
// one a zero-copy view (storage.Chunk.Slice). Either is read-only and
// valid until the next pull (see the package doc on batches). It
// returns the context's error if the consumer was canceled between
// pulls; any error closes the cursor and is sticky.
func (c *Cursor) Pull(maxRows int) (*storage.Chunk, error) {
	if c.sticky != nil {
		return nil, c.sticky
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return nil, c.fail(err)
		}
	}
	if c.done || c.closed {
		return nil, nil
	}
	for c.pend == nil || c.pos == c.pend.NumRows() {
		b, err := c.op.Next()
		if err != nil {
			return nil, c.fail(err)
		}
		if b == nil {
			c.finish()
			return nil, nil
		}
		c.pend, c.pos = b, 0
	}
	n := c.pend.NumRows() - c.pos
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	out := c.pend
	if n < out.NumRows() {
		out = out.Slice(c.pos, c.pos+n)
	}
	c.pos += n
	c.served += n
	return out, nil
}

// Next returns the next window of exactly maxRows rows — fewer only at
// exhaustion — or (nil, nil) once the cursor is exhausted. maxRows <= 0
// drains everything remaining into one window. Windows are filled
// across operator batches, so the windows a consumer observes are a
// pure function of the result and maxRows, never of the executor's
// batch boundaries. A window of maxRows > 0 rows that one Pull filled
// is its batch (or a view of it), valid until the next call. Any other
// window is materialized fresh: the first batch is copied before the
// next pull, even when that pull turns out to be the last, so a drain
// (maxRows <= 0) copies even a one-batch result.
func (c *Cursor) Next(maxRows int) (*storage.Chunk, error) {
	return accumulate(c.Pull, maxRows)
}

// finish marks exhaustion: the total becomes known and the operator
// tree is released.
func (c *Cursor) finish() {
	c.done = true
	c.pend = nil
	c.known = c.served
	c.Close()
}

// fail records a sticky error and releases the operator tree.
func (c *Cursor) fail(err error) error {
	c.sticky = err
	c.Close()
	return err
}

// Close releases the underlying operator tree and fires the close
// hook. Idempotent.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.op.Close()
	if c.onClose != nil {
		c.onClose()
	}
	return err
}
