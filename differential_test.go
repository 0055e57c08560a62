package graphsql

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"graphsql/internal/par"
	"graphsql/internal/testutil"
)

// The differential harness locks down the engine-wide determinism
// guarantee: every query in the golden corpus must render
// byte-identically at parallelism 1 (the sequential reference), 2, an
// odd worker count (to hit uneven partition boundaries) and
// GOMAXPROCS. The size gates are opened so the corpus — kept
// small for speed — still drives every partitioned code path.

// differentialSettings returns the parallelism settings under test,
// deduplicated; 1 comes first and is the reference.
func differentialSettings() []int {
	settings := []int{1, 2, 5, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	out := settings[:0]
	for _, s := range settings {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// forceParallelOperators opens every parallel size gate for the test.
func forceParallelOperators(t testing.TB) {
	t.Helper()
	prev := par.OpenGates(true)
	t.Cleanup(func() { par.OpenGates(prev) })
}

func openCorpusDB(t testing.TB, parallelism int) *DB {
	t.Helper()
	db := Open(WithParallelism(parallelism))
	if _, err := db.ExecScript(context.Background(), testutil.SetupScript()); err != nil {
		t.Fatalf("parallelism %d: corpus setup: %v", parallelism, err)
	}
	return db
}

func TestDifferentialParallelism(t *testing.T) {
	forceParallelOperators(t)
	settings := differentialSettings()
	dbs := make([]*DB, len(settings))
	for i, p := range settings {
		dbs[i] = openCorpusDB(t, p)
	}
	for qi, q := range testutil.Queries() {
		t.Run(fmt.Sprintf("q%02d", qi), func(t *testing.T) {
			ref, err := dbs[0].Query(q)
			if err != nil {
				t.Fatalf("parallelism 1: %v\nquery: %s", err, q)
			}
			want := ref.String()
			for i := 1; i < len(settings); i++ {
				got, err := dbs[i].Query(q)
				if err != nil {
					t.Fatalf("parallelism %d: %v\nquery: %s", settings[i], err, q)
				}
				if got.String() != want {
					t.Errorf("parallelism %d renders differently\nquery: %s\n--- parallelism 1 (%d rows)\n%s--- parallelism %d (%d rows)\n%s",
						settings[i], q, ref.Len(), want, settings[i], got.Len(), got.String())
				}
			}
		})
	}
}

// TestDifferentialParallelismIndexed repeats the graph-extension slice
// of the corpus with a prebuilt graph index, so the dynamic-index
// match path (delta absorption + parallel output materialization) is
// covered by the same byte-identity requirement.
func TestDifferentialParallelismIndexed(t *testing.T) {
	forceParallelOperators(t)
	settings := differentialSettings()
	dbs := make([]*DB, len(settings))
	for i, p := range settings {
		dbs[i] = openCorpusDB(t, p)
		if err := dbs[i].BuildGraphIndex("knows", "src", "dst"); err != nil {
			t.Fatal(err)
		}
		// A few post-index inserts exercise the delta path.
		dbs[i].MustExec(`INSERT INTO knows VALUES (0, 399, 1, 1.5), (399, 1, 2, 2.5)`)
	}
	for qi, q := range testutil.Queries() {
		ref, err := dbs[0].Query(q)
		if err != nil {
			t.Fatalf("q%02d parallelism 1: %v", qi, err)
		}
		want := ref.String()
		for i := 1; i < len(settings); i++ {
			got, err := dbs[i].Query(q)
			if err != nil {
				t.Fatalf("q%02d parallelism %d: %v", qi, settings[i], err)
			}
			if got.String() != want {
				t.Errorf("q%02d: parallelism %d renders differently\nquery: %s", qi, settings[i], q)
			}
		}
	}
}
