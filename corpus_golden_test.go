package graphsql

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsql/internal/testutil"
)

// testdata/corpus.golden holds the rendered result of every
// testutil.Queries() entry. It was recorded at commit 82373ad, the last
// one that still had the recursive materializing interpreter, with that
// interpreter selected process-wide and parallelism 1, immediately
// before the interpreter was deleted; it is the frozen verdict of that
// reference, so the surviving executor is checked against something it
// did not produce. Regenerate with
//
//	go test -run TestCorpusGolden -update .
//
// only when the corpus itself changes, and review the diff.
var updateGolden = flag.Bool("update", false, "rewrite testdata/corpus.golden from the current engine")

const corpusGoldenPath = "testdata/corpus.golden"

// renderCorpus runs every corpus query and renders query text and
// result back to back.
func renderCorpus(t *testing.T, db *DB, qo QueryOptions) []byte {
	t.Helper()
	var b bytes.Buffer
	for qi, q := range testutil.Queries() {
		res, err := db.QueryRows(context.Background(), qo, q)
		if err != nil {
			t.Fatalf("q%02d: %v\nquery: %s", qi, err, q)
		}
		out, err := res.Result()
		if err != nil {
			t.Fatalf("q%02d: %v\nquery: %s", qi, err, q)
		}
		fmt.Fprintf(&b, "-- q%02d (%d rows): %s\n%s\n", qi, out.Len(), strings.Join(strings.Fields(q), " "), out.String())
	}
	return b.Bytes()
}

// TestCorpusGolden requires the corpus to render byte-identically to
// the frozen golden at every differential parallelism setting × batch
// size {3, default, one batch}, with and without a graph index serving
// the GraphMatch queries.
func TestCorpusGolden(t *testing.T) {
	forceParallelOperators(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(corpusGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusGoldenPath, renderCorpus(t, openCorpusDB(t, 1), QueryOptions{}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(corpusGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	for _, p := range differentialSettings() {
		for _, indexed := range []bool{false, true} {
			db := openCorpusDB(t, p)
			if indexed {
				if err := db.BuildGraphIndex("knows", "src", "dst"); err != nil {
					t.Fatal(err)
				}
			}
			for _, batch := range []int{3, 0, 1_000_000} {
				got := renderCorpus(t, db, QueryOptions{BatchRows: batch})
				if !bytes.Equal(got, want) {
					t.Errorf("parallelism %d indexed=%v batch=%d: corpus differs from %s\n%s",
						p, indexed, batch, corpusGoldenPath, firstDiff(want, got))
				}
			}
		}
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}
