package exec

import (
	"context"

	"graphsql/internal/storage"
)

// Cursor is the one form a statement's result takes above the
// executor: the row-batch iterator seam between execution and
// row-oriented consumers (the HTTP response sinks, the facade's Rows,
// the CLI). It pulls batches from an open Operator tree and re-windows
// them to the consumer's requested size. Execution happens *during*
// iteration — the first window is available before the query finishes —
// and the total row count is unknown until exhaustion. A statement
// without an operator tree of its own (EXPLAIN text, DDL/DML) is a
// one-chunk operator (NewCursor), so every consumer drains every result
// the same way.
//
// Each Next call polls the cancellation context, keeping a
// disconnecting client's cursor under the same cancellation contract
// as execution itself. Windows are zero-copy views
// (storage.Chunk.Slice) of the current batch; a window stays valid
// until the next Next call. A Cursor is not safe for concurrent use.
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
// chunkOp opened on the spot, so the result of a statement that
// executed to completion drains like any operator tree. ctx may be nil
// (never cancels); chunk may be nil (an empty result, e.g. a DDL
// statement). A failure to open — cancellation, an injected fault — is
// the cursor's sticky error.
func NewCursor(ctx context.Context, chunk *storage.Chunk) *Cursor {
	if chunk == nil {
		chunk = &storage.Chunk{}
	}
	op := &chunkOp{src: chunk}
	op.describe, op.sch = "Result", chunk.Schema
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

// Next returns the next window of exactly maxRows rows — fewer only at
// exhaustion — or (nil, nil) once the cursor is exhausted. maxRows <= 0
// drains everything remaining into one window. Windows are filled
// across operator batches, so the frame sequence a consumer observes
// is a pure function of the result and maxRows — ceil(n/maxRows)
// frames — never of the executor's internal batch boundaries (the
// streamed wire encoding relies on this to stay byte-identical across
// batch sizes and cache replays). A window served from within a single
// batch is a zero-copy view valid until the next Next call; one that
// spans batches is materialized fresh. It returns the context's error
// if the consumer was canceled between batches; any error closes the
// cursor and is sticky.
func (c *Cursor) Next(maxRows int) (*storage.Chunk, error) {
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
	if maxRows <= 0 {
		return c.drain()
	}
	var acc *storage.Chunk // partial window spanning batch boundaries
	accRows := 0
	for {
		if c.pend != nil && c.pos < c.pend.NumRows() {
			avail := c.pend.NumRows() - c.pos
			need := maxRows - accRows
			if acc == nil && avail >= need {
				win := c.pend.Slice(c.pos, c.pos+need)
				c.pos += need
				c.served += need
				return win, nil
			}
			take := avail
			if take > need {
				take = need
			}
			part := c.pend.Slice(c.pos, c.pos+take)
			if acc == nil {
				acc = emptyLike(part)
			}
			acc.Extend(part)
			accRows += take
			c.pos += take
			if accRows == maxRows {
				c.served += accRows
				return acc, nil
			}
			continue
		}
		b, err := c.op.Next()
		if err != nil {
			return nil, c.fail(err)
		}
		if b == nil {
			break
		}
		c.pend, c.pos = b, 0
	}
	c.served += accRows
	c.finish()
	if accRows == 0 {
		return nil, nil
	}
	return acc, nil
}

// drain returns everything remaining as one window.
func (c *Cursor) drain() (*storage.Chunk, error) {
	var rest *storage.Chunk
	if c.pend != nil && c.pos < c.pend.NumRows() {
		rest = c.pend.Slice(c.pos, c.pend.NumRows())
		c.pos = c.pend.NumRows()
	}
	more, err := drainInput(c.op)
	if err != nil {
		return nil, c.fail(err)
	}
	switch {
	case rest == nil:
		rest = more
	case more.NumRows() > 0:
		out := emptyLike(rest)
		out.Extend(rest)
		out.Extend(more)
		rest = out
	}
	c.served += rest.NumRows()
	c.finish()
	if rest.NumRows() == 0 {
		return nil, nil
	}
	return rest, nil
}

// finish marks exhaustion: the total becomes known and the operator
// tree is released.
func (c *Cursor) finish() {
	c.done = true
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
