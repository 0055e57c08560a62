package main

import (
	"math"
	"testing"

	"graphsql/internal/ldbc"
)

// floydWarshall returns all-pairs cheapest costs over n vertices
// (math.MaxInt64 = unreachable) for unit or given weights.
func floydWarshall(n int, src, dst, w []int64, unit bool) [][]int64 {
	const inf = math.MaxInt64
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := range d[i] {
			d[i][j] = inf
		}
	}
	seen := make([]bool, n)
	for i := range src {
		c := w[i]
		if unit {
			c = 1
		}
		if c < d[src[i]][dst[i]] {
			d[src[i]][dst[i]] = c
		}
		seen[src[i]], seen[dst[i]] = true, true
	}
	for v := range seen {
		if seen[v] {
			d[v][v] = 0
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k] != inf && d[k][j] != inf && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestOracleAgainstFloydWarshall(t *testing.T) {
	r := newRng(1)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.intn(9)
		m := r.intn(3 * n)
		src, dst, w := make([]int64, m), make([]int64, m), make([]int64, m)
		for i := 0; i < m; i++ {
			src[i], dst[i], w[i] = int64(r.intn(n)), int64(r.intn(n)), int64(1+r.intn(10))
		}
		o := newOracle(src, dst, w)
		hops := floydWarshall(n, src, dst, w, true)
		cost := floydWarshall(n, src, dst, w, false)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				gotH, okH := o.hops(int64(s), int64(d))
				if wantOK := hops[s][d] != math.MaxInt64; okH != wantOK || okH && gotH != hops[s][d] {
					t.Fatalf("trial %d: hops(%d,%d) = %d,%v; Floyd-Warshall %d", trial, s, d, gotH, okH, hops[s][d])
				}
				gotC, okC := o.cost(int64(s), int64(d))
				if wantOK := cost[s][d] != math.MaxInt64; okC != wantOK || okC && gotC != cost[s][d] {
					t.Fatalf("trial %d: cost(%d,%d) = %d,%v; Floyd-Warshall %d", trial, s, d, gotC, okC, cost[s][d])
				}
			}
		}
		for i := range src {
			if !o.hasEdge(src[i], dst[i], w[i]) {
				t.Fatalf("trial %d: edge %d missing", trial, i)
			}
		}
		if o.hasEdge(0, 0, 11) {
			t.Fatal("an edge of weight 11 cannot exist")
		}
	}
}

// connected is only reachability when every edge has its reverse; the
// generated dataset must have that property, or the batch workload's
// row counts would be checked against the wrong expectation.
func TestConnectedIsReachabilityOnLDBC(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(ds.Src, ds.Dst, ds.IWeight)
	ids := append([]int64{-5}, ds.PersonIDs...) // -5 is no person at all
	for _, s := range ids {
		for _, d := range ids {
			if _, reach := o.hops(s, d); reach != o.connected(s, d) {
				t.Fatalf("connected(%d,%d) = %v but reachable = %v", s, d, o.connected(s, d), reach)
			}
		}
	}
}

func TestCountAbove(t *testing.T) {
	sorted := []float64{1, 2, 2, 3, 5}
	for _, c := range []struct {
		t    float64
		want int
	}{{0, 5}, {2, 2}, {2.5, 2}, {5, 0}, {1, 4}} {
		if got := countAbove(sorted, c.t); got != c.want {
			t.Errorf("countAbove(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}
