package engine

import (
	"context"
	"testing"

	"graphsql/internal/types"
)

// q13Allocs is what one execution of the paper's Q13 shape on a graph
// index allocates through ExecPreparedCursor and a drain in windows of
// 1,024 rows, the engine.exec_allocs_per_op path of the benchmark.
const q13Allocs = 50

// TestQ13ExecutionAllocs pins the allocations of one indexed Q13
// execution: building the operator tree walks the plan without
// allocating (plan.Node.Child), and the one-row result reaches the
// consumer without a copy beyond the accumulation loop's.
func TestQ13ExecutionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the solver's scratch pool drop entries, so the count varies")
	}
	e := dynEngine(t)
	if err := e.BuildGraphIndex("e", "s", "d"); err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewInt(1), types.NewInt(3)}
	p, err := e.Prepare(pairQ, params...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, opts := context.Background(), DefaultExecOptions()
	opts.Parallelism = 1
	rows := 0
	allocs := testing.AllocsPerRun(50, func() {
		cur, err := e.ExecPreparedCursor(ctx, p, &opts, params...)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		for {
			c, err := cur.Next(1024)
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				return
			}
			rows += c.NumRows()
		}
	})
	if rows != 51 {
		t.Fatalf("%d rows over 51 runs, want one each", rows)
	}
	if allocs > q13Allocs {
		t.Fatalf("one Q13 execution allocated %v times, want at most %d", allocs, q13Allocs)
	}
}
