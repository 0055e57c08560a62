package graphsql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"graphsql/internal/fault"
	"graphsql/internal/storage"
	"graphsql/internal/testutil"
	"graphsql/internal/trace"
)

// lifecycleQueries are the corpus plus the shapes whose operator trees
// share or nest the most: a CTE read twice (its body is built, opened,
// drained and closed once for both references) under a sort and a
// limit, a GROUP BY under each side of a UNION, and a REACHES.
func lifecycleQueries() []string {
	return append(testutil.Queries(),
		`WITH c AS (SELECT src, dst FROM knows WHERE w > 5)
		 SELECT a.src, b.dst FROM c a JOIN c b ON a.dst = b.src ORDER BY a.src, b.dst LIMIT 10`,
		`SELECT team, COUNT(*) FROM people GROUP BY team
		 UNION SELECT w, COUNT(*) FROM knows GROUP BY w`,
		`SELECT p.a, p.b FROM pairs p WHERE p.a REACHES p.b OVER knows EDGE (src, dst)`,
	)
}

// TestOperatorLifecycleUnderFailure fails every statement at each
// operator's Open (exec.operator) and then at each batch
// (exec.batch), at the first, second, … hit until it succeeds. After
// every failure the cursor closes, a second Close does nothing, no
// trace span is left open, and no goroutine is left running. Not
// parallel: the fault schedule is process-global.
func TestOperatorLifecycleUnderFailure(t *testing.T) {
	forceParallelOperators(t)
	t.Cleanup(fault.Reset)
	db := openCorpusDB(t, 4)
	for qi, q := range lifecycleQueries() {
		t.Run(fmt.Sprintf("q%02d", qi), func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			for _, point := range []string{fault.PointExecOperator, fault.PointExecBatch} {
				for k := 0; ; k++ {
					if err := fault.SetSpec(fmt.Sprintf("%s:error:after=%d", point, k)); err != nil {
						t.Fatal(err)
					}
					if !failAndClose(t, db, q) {
						break
					}
					if k == 10_000 {
						t.Fatalf("%s still fails after %d hits\nquery: %s", point, k, q)
					}
				}
			}
			fault.Reset()
		})
	}
}

// failAndClose runs q once under the armed schedule and reports whether
// it failed, checking what a failure must leave behind.
func failAndClose(t *testing.T, db *DB, q string) bool {
	t.Helper()
	tr := NewTrace()
	rows, err := db.QueryRows(context.Background(), QueryOptions{Trace: tr}, q)
	if err == nil {
		for {
			var c *storage.Chunk
			if c, err = rows.NextChunk(); err != nil || c == nil {
				break
			}
		}
		if cerr := rows.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := rows.Close(); cerr != nil {
			t.Fatalf("second Close = %v, want nil\nquery: %s", cerr, q)
		}
	}
	if stage := tr.CurrentStage(); stage != "" {
		t.Fatalf("span %q still open after %v\nquery: %s", stage, err, q)
	}
	if err != nil && !strings.Contains(err.Error(), "fault: injected error") {
		t.Fatalf("unexpected error %v\nquery: %s", err, q)
	}
	if n := countSpans(tr.Tree(), "Scan knows AS knows"); strings.HasPrefix(q, "WITH c AS") && n > 1 {
		t.Fatalf("the body of c opened %d times\nquery: %s", n, q)
	}
	return err != nil
}

// countSpans counts the spans named name in the tree under n.
func countSpans(n *trace.Node, name string) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.Name == name {
		c++
	}
	for _, ch := range n.Children {
		c += countSpans(ch, name)
	}
	return c
}
