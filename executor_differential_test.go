package graphsql

import (
	"context"
	"fmt"
	"testing"

	"graphsql/internal/testutil"
)

// The batch-size differential pins the re-batching invariant: at every
// differential parallelism setting, every corpus query must render
// byte-identically whatever the operator batch size. The reference is
// one batch per operator (BatchRows 1_000_000, far above any corpus
// cardinality): each operator core applied exactly once to its whole
// input. A divergence therefore means a pipeline operator (scan,
// filter, project, unnest, union-all, limit) or a breaker's output
// window mishandles a batch boundary. TestCorpusGolden additionally
// ties the single-batch reference to the frozen verdicts of the
// retired materializing interpreter.

// batchRuns enumerates the batch sizes under differential test; the
// single-batch run comes first and is the reference.
func batchRuns() []QueryOptions {
	return []QueryOptions{
		{BatchRows: 1_000_000},
		{BatchRows: 3}, // tiny batches force every window boundary
		{},             // default
	}
}

func TestExecutorDifferential(t *testing.T) {
	forceParallelOperators(t)
	ctx := context.Background()
	for _, p := range differentialSettings() {
		db := openCorpusDB(t, p)
		sess := db.Session()
		for qi, q := range testutil.Queries() {
			runs := batchRuns()
			ref, err := sess.QueryOpts(ctx, runs[0], q)
			if err != nil {
				t.Fatalf("parallelism %d q%02d batch=%d: %v\nquery: %s", p, qi, runs[0].BatchRows, err, q)
			}
			want := ref.String()
			for _, qo := range runs[1:] {
				got, err := sess.QueryOpts(ctx, qo, q)
				if err != nil {
					t.Fatalf("parallelism %d q%02d batch=%d: %v\nquery: %s", p, qi, qo.BatchRows, err, q)
				}
				if got.String() != want {
					t.Errorf("parallelism %d q%02d: batch=%d renders differently from the single-batch run\nquery: %s\n--- single batch (%d rows)\n%s--- batch=%d (%d rows)\n%s",
						p, qi, qo.BatchRows, q, ref.Len(), want, qo.BatchRows, got.Len(), got.String())
				}
			}
		}
	}
}

// TestExecutorStreamingEquivalence locks the streamed drain to the
// buffered result: reassembling a cursor's windows — tiny operator
// batches, a window size coprime to them, so windows constantly span
// batch boundaries — must reproduce DB.Query exactly, and the frame
// sequence must be the deterministic ceil(n/window) shape the wire
// cache replay depends on.
func TestExecutorStreamingEquivalence(t *testing.T) {
	forceParallelOperators(t)
	ctx := context.Background()
	db := openCorpusDB(t, 2)
	for qi, q := range testutil.Queries() {
		ref, err := db.Query(q)
		if err != nil {
			t.Fatalf("q%02d: %v\nquery: %s", qi, err, q)
		}
		rows, err := db.QueryRows(ctx, QueryOptions{BatchRows: 3}, q)
		if err != nil {
			t.Fatalf("q%02d: QueryRows: %v\nquery: %s", qi, err, q)
		}
		const window = 5
		got := &Result{Columns: rows.Columns}
		frames := 0
		for {
			batch, err := rows.NextBatch(window)
			if err != nil {
				t.Fatalf("q%02d: NextBatch: %v\nquery: %s", qi, err, q)
			}
			if batch == nil {
				break
			}
			frames++
			if len(batch) != window && len(got.Rows)+len(batch) != ref.Len() {
				t.Fatalf("q%02d: short window of %d rows mid-stream (frame %d)\nquery: %s",
					qi, len(batch), frames, q)
			}
			got.Rows = append(got.Rows, batch...)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("q%02d: Close: %v", qi, err)
		}
		if got.String() != ref.String() {
			t.Errorf("q%02d: streamed drain differs from buffered result\nquery: %s\n--- buffered (%d rows)\n%s--- streamed (%d rows)\n%s",
				qi, q, ref.Len(), ref.String(), len(got.Rows), got.String())
		}
		if wantFrames := (ref.Len() + window - 1) / window; frames != wantFrames {
			t.Errorf("q%02d: %d rows in %d frames of %d, want %d\nquery: %s",
				qi, ref.Len(), frames, window, wantFrames, q)
		}
	}
}

// TestExplainAnalyzeExecutor runs EXPLAIN ANALYZE through the session
// path (prepared-plan cache, per-statement options) and checks the
// contract the executor must honor there too: the annotated root
// reports the true result cardinality and a wall time. The
// per-operator actuals underneath may legitimately be smaller than the
// operator's full output — a Limit stops pulling its child as soon as
// the quota fills.
func TestExplainAnalyzeExecutor(t *testing.T) {
	forceParallelOperators(t)
	ctx := context.Background()
	db := openCorpusDB(t, 2)
	sess := db.Session()
	for qi, q := range testutil.Queries() {
		ref, err := sess.Query(ctx, q)
		if err != nil {
			t.Fatalf("q%02d: %v\nquery: %s", qi, err, q)
		}
		plan, err := sess.Query(ctx, "EXPLAIN ANALYZE "+q)
		if err != nil {
			t.Fatalf("q%02d: EXPLAIN ANALYZE: %v\nquery: %s", qi, err, q)
		}
		requireAnalyzedRoot(t, fmt.Sprintf("q%02d", qi), plan, ref.Len(), q)
	}
}
