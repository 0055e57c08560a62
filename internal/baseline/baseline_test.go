package baseline

import (
	"context"
	"testing"

	"graphsql/internal/engine"
	"graphsql/internal/ldbc"
)

func lineEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New()
	if _, err := e.ExecScript(context.Background(), `
		CREATE TABLE edges (src BIGINT, dst BIGINT);
		INSERT INTO edges VALUES
			(1, 2), (2, 3), (3, 4), (4, 5),
			(1, 5),
			(10, 11);
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAllMethodsAgreeOnLineGraph(t *testing.T) {
	e := lineEngine(t)
	cases := []struct {
		s, d int64
		want int64
	}{
		{1, 5, 1},  // direct shortcut
		{1, 4, 3},  // along the line
		{2, 5, 3},  // 2-3-4-5
		{5, 1, -1}, // directed: no way back
		{1, 11, -1},
		{10, 11, 1},
		{3, 3, 0}, // self
		{1, 1, 0},
	}
	for _, c := range cases {
		native, err := Native(context.Background(), e, "edges", "src", "dst", c.s, c.d)
		if err != nil {
			t.Fatalf("native(%d,%d): %v", c.s, c.d, err)
		}
		if native != c.want {
			t.Errorf("native(%d,%d) = %d, want %d", c.s, c.d, native, c.want)
		}
		rec, err := RecursiveCTE(context.Background(), e, "edges", "src", "dst", c.s, c.d, 0)
		if err != nil {
			t.Fatalf("recursive(%d,%d): %v", c.s, c.d, err)
		}
		if rec != c.want {
			t.Errorf("recursive(%d,%d) = %d, want %d", c.s, c.d, rec, c.want)
		}
		psm, err := PSM(context.Background(), e, "edges", "src", "dst", c.s, c.d, 0)
		if err != nil {
			t.Fatalf("psm(%d,%d): %v", c.s, c.d, err)
		}
		if psm != c.want {
			t.Errorf("psm(%d,%d) = %d, want %d", c.s, c.d, psm, c.want)
		}
		sj, err := SelfJoinChain(context.Background(), e, "edges", "src", "dst", c.s, c.d, 4)
		if err != nil {
			t.Fatalf("selfjoin(%d,%d): %v", c.s, c.d, err)
		}
		if sj != c.want {
			t.Errorf("selfjoin(%d,%d) = %d, want %d", c.s, c.d, sj, c.want)
		}
	}
}

func TestSelfJoinChainRespectsBound(t *testing.T) {
	e := lineEngine(t)
	// 2 -> 5 needs 3 hops; a bound of 2 must miss it.
	got, err := SelfJoinChain(context.Background(), e, "edges", "src", "dst", 2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != -1 {
		t.Fatalf("got %d, want -1 under bound 2", got)
	}
}

func TestRecursiveCTECleansUpTempTables(t *testing.T) {
	e := lineEngine(t)
	if _, err := RecursiveCTE(context.Background(), e, "edges", "src", "dst", 1, 4, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Catalog().Table("__bl_visited"); ok {
		t.Fatal("temp table leaked")
	}
	if _, ok := e.Catalog().Table("__bl_frontier"); ok {
		t.Fatal("temp table leaked")
	}
}

func TestSelfNonVertexIsUnreachable(t *testing.T) {
	e := lineEngine(t)
	for _, f := range []func() (int64, error){
		func() (int64, error) { return Native(context.Background(), e, "edges", "src", "dst", 999, 999) },
		func() (int64, error) {
			return RecursiveCTE(context.Background(), e, "edges", "src", "dst", 999, 999, 0)
		},
		func() (int64, error) { return PSM(context.Background(), e, "edges", "src", "dst", 999, 999, 0) },
		func() (int64, error) {
			return SelfJoinChain(context.Background(), e, "edges", "src", "dst", 999, 999, 3)
		},
	} {
		got, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if got != -1 {
			t.Fatalf("non-vertex self pair = %d, want -1", got)
		}
	}
}

// TestMethodsAgreeOnGeneratedGraph cross-checks all methods on a small
// LDBC-style social graph against the native operator.
func TestMethodsAgreeOnGeneratedGraph(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New()
	if err := ds.Load(e.Catalog()); err != nil {
		t.Fatal(err)
	}
	src, dst := ds.RandomPairs(8, 11)
	for i := range src {
		native, err := Native(context.Background(), e, "friends", "src", "dst", src[i], dst[i])
		if err != nil {
			t.Fatal(err)
		}
		rec, err := RecursiveCTE(context.Background(), e, "friends", "src", "dst", src[i], dst[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec != native {
			t.Errorf("pair %d: recursive %d != native %d", i, rec, native)
		}
		psm, err := PSM(context.Background(), e, "friends", "src", "dst", src[i], dst[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if psm != native {
			t.Errorf("pair %d: psm %d != native %d", i, psm, native)
		}
	}
}
