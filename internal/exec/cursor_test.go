package exec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"graphsql/internal/storage"
)

// batchesOp emits fixed batches, then fails with err when it is set.
type batchesOp struct {
	batches []*storage.Chunk
	err     error
	closed  bool
}

func (o *batchesOp) Schema() storage.Schema { return o.batches[0].Schema }
func (o *batchesOp) Open(*Context) error    { return nil }
func (o *batchesOp) Close() error           { o.closed = true; return nil }
func (o *batchesOp) Next() (*storage.Chunk, error) {
	if len(o.batches) == 0 {
		return nil, o.err
	}
	b := o.batches[0]
	o.batches = o.batches[1:]
	return b, nil
}

// raggedBatches returns batches of 3, 0, 1 and 5 rows holding 1..9, as
// a filter leaves them.
func raggedBatches() []*storage.Chunk {
	return []*storage.Chunk{mkChunk("t", 1, 2, 3), mkChunk("t"), mkChunk("t", 4), mkChunk("t", 5, 6, 7, 8, 9)}
}

// TestCursorPullNeverCrossesABatch: Pull hands out the rest of the
// current batch up to its bound, the operator's own chunk when it takes
// the batch whole, skips empty batches, and learns the total at
// exhaustion.
func TestCursorPullNeverCrossesABatch(t *testing.T) {
	batches := raggedBatches()
	op := &batchesOp{batches: batches}
	cur := NewOperatorCursor(context.Background(), op, nil)
	var got [][]int64
	for i, bound := range []int{0, 2, 2, 0} {
		b, err := cur.Pull(bound)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			t.Fatalf("pull %d: exhausted early", i)
		}
		if i == 0 && b != batches[0] {
			t.Fatal("a batch taken whole is not the operator's own chunk")
		}
		got = append(got, append([]int64(nil), b.Cols[0].Ints...))
	}
	want := [][]int64{{1, 2, 3}, {4}, {5, 6}, {7, 8, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pulls %v, want %v", got, want)
	}
	if cur.NumRows() != -1 {
		t.Fatalf("total %d before exhaustion, want -1", cur.NumRows())
	}
	if b, err := cur.Pull(0); b != nil || err != nil {
		t.Fatalf("pull at exhaustion: %v, %v", b, err)
	}
	if cur.NumRows() != 9 || !op.closed {
		t.Fatalf("total %d, closed %v; want 9 and the tree released", cur.NumRows(), op.closed)
	}
}

// TestCursorNextWindowsAcrossBatches: Next's windows are exactly
// maxRows rows — fewer only at the end — however the batches fall, and
// maxRows <= 0 drains the rest into one window.
func TestCursorNextWindowsAcrossBatches(t *testing.T) {
	for _, c := range []struct {
		max  int
		want [][]int64
	}{
		{1, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}}},
		{2, [][]int64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9}}},
		{4, [][]int64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9}}},
		{9, [][]int64{{1, 2, 3, 4, 5, 6, 7, 8, 9}}},
		{0, [][]int64{{1, 2, 3, 4, 5, 6, 7, 8, 9}}},
	} {
		cur := NewOperatorCursor(nil, &batchesOp{batches: raggedBatches()}, nil)
		var got [][]int64
		for {
			w, err := cur.Next(c.max)
			if err != nil {
				t.Fatal(err)
			}
			if w == nil {
				break
			}
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
			got = append(got, append([]int64(nil), w.Cols[0].Ints...))
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Next(%d): %v, want %v", c.max, got, c.want)
		}
	}
}

// TestCursorErrorsAreSticky: an operator failure and a canceled
// context each close the cursor and come back from every later pull.
func TestCursorErrorsAreSticky(t *testing.T) {
	boom := errors.New("boom")
	op := &batchesOp{batches: raggedBatches()[:1], err: boom}
	cur := NewOperatorCursor(nil, op, nil)
	if _, err := cur.Next(5); !errors.Is(err, boom) || !op.closed {
		t.Fatalf("Next: %v, closed %v; want boom and the tree released", err, op.closed)
	}
	if _, err := cur.Pull(0); !errors.Is(err, boom) {
		t.Fatalf("Pull after failure: %v, want boom again", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	op = &batchesOp{batches: raggedBatches()}
	cur = NewOperatorCursor(ctx, op, nil)
	if _, err := cur.Pull(1); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := cur.Pull(1); !errors.Is(err, context.Canceled) || !op.closed {
		t.Fatalf("Pull after cancel: %v, closed %v", err, op.closed)
	}
}

// TestCursorClosedMidBatchPullsNothing: after Close, the rest of the
// current batch is not handed out.
func TestCursorClosedMidBatchPullsNothing(t *testing.T) {
	cur := NewOperatorCursor(nil, &batchesOp{batches: raggedBatches()}, nil)
	if b, err := cur.Pull(1); err != nil || b.NumRows() != 1 {
		t.Fatalf("first pull: %v, %v", b, err)
	}
	cur.Close()
	if b, err := cur.Pull(0); b != nil || err != nil {
		t.Fatalf("pull after Close: %v, %v; want nothing", b, err)
	}
}
