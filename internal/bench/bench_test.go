package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"graphsql/internal/ldbc"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// friendsPairsSchema is the schema of an ad hoc pairs table.
func friendsPairsSchema() storage.Schema {
	return storage.Schema{
		{Name: "src", Kind: types.KindInt},
		{Name: "dst", Kind: types.KindInt},
	}
}

func intValue(i int64) types.Value { return types.NewInt(i) }

// Setup2 generates a tiny dataset for runtime-level tests.
func Setup2(t *testing.T) (*ldbc.Dataset, uint64) {
	t.Helper()
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds, 5
}

// TestExperimentsRunEndToEnd smoke-tests every experiment driver on a
// tiny configuration and checks the reports have the expected rows.
func TestExperimentsRunEndToEnd(t *testing.T) {
	base := Options{SFs: []int{1}, Shrink: 100, Pairs: 3,
		BatchSizes: []int{1, 4}, Seed: 1}
	cases := []struct {
		name string
		run  func(Options) error
		want []string
	}{
		{"table1", Table1, []string{"Table 1", "9892", "362000"}},
		{"fig1a", Fig1a, []string{"Figure 1a", "Q13", "Q14var", "Q14f", "ratio"}},
		{"fig1b", Fig1b, []string{"Figure 1b", "b=1", "b=4"}},
		{"baselines", Baselines, []string{"native REACHES", "recursive CTE", "PSM", "self-join"}},
		{"phases", Phases, []string{"build (s)", "solve (s)", "indexed"}},
		{"queues", DijkstraQueues, []string{"radix", "binheap"}},
		{"dynindex", DynamicIndex, []string{"E7", "adhoc", "rebuild", "delta"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			o := base
			o.Out = &buf
			if err := c.run(o); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("report missing %q:\n%s", w, out)
				}
			}
		})
	}
}

func TestSetupLoadsTables(t *testing.T) {
	e, ds, err := Setup(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	friends, ok := e.Catalog().Table("friends")
	if !ok || friends.NumRows() != ds.NumEdges() {
		t.Fatal("friends not loaded")
	}
}

func TestRunBatchResultCorrectness(t *testing.T) {
	e, ds, err := Setup(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBatch(e, ds, 16, 1); err != nil {
		t.Fatal(err)
	}
	// The pairs table exists and is re-created per batch.
	if _, ok := e.Catalog().Table("pairs"); !ok {
		t.Fatal("pairs table missing after RunBatch")
	}
	if _, err := RunBatch(e, ds, 4, 2); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedAnswersMatchSinglePair verifies the batched many-to-many
// execution gives the same costs as one query per pair.
func TestBatchedAnswersMatchSinglePair(t *testing.T) {
	e, ds, err := Setup(1, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ds.RandomPairs(12, 99)
	pairs, err := e.Catalog().CreateTable("p2", friendsPairsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		pairs.Cols[0].AppendInt(src[i])
		pairs.Cols[1].AppendInt(dst[i])
	}
	batched, err := e.QueryCtx(context.Background(), `
		SELECT p.src, p.dst, CHEAPEST SUM(1) AS cost
		FROM p2 p
		WHERE p.src REACHES p.dst OVER friends EDGE (src, dst)`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]int64]int64{}
	for i := 0; i < batched.NumRows(); i++ {
		r := batched.Row(i)
		got[[2]int64{r[0].I, r[1].I}] = r[2].I
	}
	for i := range src {
		single, err := e.QueryCtx(context.Background(), Q13, intValue(src[i]), intValue(dst[i]))
		if err != nil {
			t.Fatal(err)
		}
		key := [2]int64{src[i], dst[i]}
		if single.NumRows() == 0 {
			if _, ok := got[key]; ok {
				t.Errorf("pair %v: batched reachable, single not", key)
			}
			continue
		}
		want := single.Cols[0].Ints[0]
		if got[key] != want {
			t.Errorf("pair %v: batched %d, single %d", key, got[key], want)
		}
	}
}

func TestBuildRuntimeGraphShape(t *testing.T) {
	ds, _ := Setup2(t)
	g, weights, dict := BuildRuntimeGraph(ds)
	if g.N != ds.NumVertices() || g.NumEdges() != ds.NumEdges() {
		t.Fatalf("|V|=%d |E|=%d, want %d/%d", g.N, g.NumEdges(), ds.NumVertices(), ds.NumEdges())
	}
	if len(weights) != ds.NumEdges() {
		t.Fatal("weights misaligned")
	}
	if dict.Len() != ds.NumVertices() {
		t.Fatal("dictionary incomplete")
	}
}

func TestRunQueueAblationAgreement(t *testing.T) {
	ds, _ := Setup2(t)
	if _, _, err := RunQueueAblation(ds, 4, 5, 0); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicIndexPoliciesAgree cross-checks the E7 policies return
// identical distances on a shared insert+query workload.
func TestDynamicIndexPoliciesAgree(t *testing.T) {
	if err := VerifyDynamicAgainstAdhoc(1, 100, 6, 7); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicIndexExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	o := Options{SFs: []int{1}, Shrink: 100, Pairs: 2, Seed: 1, Out: &buf}
	if err := DynamicIndex(o); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"adhoc", "rebuild", "delta"} {
		if !strings.Contains(buf.String(), w) {
			t.Fatalf("report missing %q:\n%s", w, buf.String())
		}
	}
}
