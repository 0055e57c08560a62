package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of Err calls — a deterministic stand-in for "the client
// disconnects while graph construction is in flight" that lets tests
// assert cancellation is observed inside the build's chunk loops, not
// only before or after them.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// bigEdgeChunk builds m random edges over 9000 vertices — large enough
// to cross the parallel dictionary-encode and CSR thresholds.
func bigEdgeChunk(m int) *storage.Chunk {
	rng := rand.New(rand.NewSource(71))
	c := storage.NewChunk(storage.Schema{
		{Name: "s", Kind: types.KindInt},
		{Name: "d", Kind: types.KindInt},
	})
	sc := storage.NewColumn(types.KindInt, m)
	dc := storage.NewColumn(types.KindInt, m)
	for i := 0; i < m; i++ {
		sc.AppendInt(int64(rng.Intn(9000)))
		dc.AppendInt(int64(rng.Intn(9000)))
	}
	c.Cols = []*storage.Column{sc, dc}
	return c
}

// TestBuildGraphCtxPreCanceled: a context dead on arrival aborts the
// build before any phase runs, at every parallelism setting.
func TestBuildGraphCtxPreCanceled(t *testing.T) {
	c := bigEdgeChunk(70000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		if _, err := BuildGraphCtx(ctx, c, 0, 1, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: expected context.Canceled, got %v", p, err)
		}
	}
}

// TestBuildGraphCtxMidBuild cancels after a bounded number of Err
// polls — few enough that the cancellation lands inside the encode/CSR
// chunk loops — and requires the build to abort with the context's
// error rather than completing.
func TestBuildGraphCtxMidBuild(t *testing.T) {
	c := bigEdgeChunk(70000)
	for _, p := range []int{1, 4} {
		// The build polls every cancelCheckInterval (4096) keys/rows;
		// 70k edges × 2 columns × several phases yields well over 60
		// polls, so a budget of 3 cancels mid-flight, never post-hoc.
		ctx := newCountdownCtx(3)
		if _, err := BuildGraphCtx(ctx, c, 0, 1, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: expected mid-build cancellation, got %v", p, err)
		}
	}
}

// TestBuildGraphCtxUncanceled: with a context that never fires, the
// ctx-threaded build is bit-identical to the plain one.
func TestBuildGraphCtxUncanceled(t *testing.T) {
	c := bigEdgeChunk(70000)
	want, err := BuildGraphCtx(context.Background(), c, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildGraphCtx(context.Background(), c, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.CSR, got.CSR) {
		t.Fatal("ctx-threaded build produced a different CSR")
	}
	if want.Dict.Len() != got.Dict.Len() {
		t.Fatalf("dictionary size %d != %d", got.Dict.Len(), want.Dict.Len())
	}
}

// TestRefreshCtxCanceledRebuild forces a delta-overflow rebuild with a
// dead context and requires the index to stay on its previous snapshot
// (same applied rows as before the call) instead of absorbing half an
// update.
func TestRefreshCtxCanceledRebuild(t *testing.T) {
	c := bigEdgeChunk(70000)
	// Snapshot over the first half of the rows.
	half := c.Gather(seqRows(35000))
	dg, err := NewDynamicGraphP(half, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	applied := dg.AppliedRows()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Doubling the edge count blows the default 25% rebuild threshold,
	// so this refresh takes the full-rebuild path — which must abort.
	if _, err := dg.RefreshCtx(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled from rebuild, got %v", err)
	}
	if got := dg.AppliedRows(); got != applied {
		t.Fatalf("canceled rebuild moved appliedRows: %d -> %d", applied, got)
	}
	// The index still answers over its old snapshot afterwards.
	if _, err := dg.RefreshCtx(context.Background(), c); err != nil {
		t.Fatalf("refresh after canceled rebuild: %v", err)
	}
	if got := dg.AppliedRows(); got != 70000 {
		t.Fatalf("post-cancel refresh applied %d rows, want 70000", got)
	}
}

func seqRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}
