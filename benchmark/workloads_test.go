package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"graphsql/internal/ldbc"
)

func smallEnv(t testing.TB, seed uint64) *env {
	t.Helper()
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Shrink: 50, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return newEnv(ds, seed)
}

// stream renders the first n request bodies of every client of a
// workload.
func stream(e *env, w *workload, n int) [][]byte {
	var out [][]byte
	for c := 0; c < w.clients; c++ {
		g := newGenerator(e, w, c)
		g.prefill(n / 2) // generated ahead or on demand, the stream is the same
		for i := 0; i < n; i++ {
			out = append(out, g.take().body)
		}
	}
	return out
}

func TestRequestStreamsAreDeterministicPerSeed(t *testing.T) {
	a, b, other := smallEnv(t, 7), smallEnv(t, 7), smallEnv(t, 8)
	for _, w := range workloads {
		sa, sb, so := stream(a, w, 40), stream(b, w, 40), stream(other, w, 40)
		same := 0
		for i := range sa {
			if !bytes.Equal(sa[i], sb[i]) {
				t.Fatalf("%s: request %d differs between two runs of seed 7:\n%s\n%s", w.name, i, sa[i], sb[i])
			}
			if bytes.Equal(sa[i], so[i]) {
				same++
			}
		}
		// mixed_rw's reads draw from 8 hot pairs, so single bodies may
		// coincide across seeds; whole streams must not.
		if same == len(sa) {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", w.name)
		}
	}
}

func TestRequestBodies(t *testing.T) {
	e := smallEnv(t, 7)
	for _, w := range workloads {
		g := newGenerator(e, w, 0)
		g.prefill(3)
		g.setTraced(true) // requests generated ahead must follow the switch
		seen := map[string]bool{}
		for i := 0; i < 200; i++ {
			rq := g.take()
			var body struct {
				Graph   string `json:"graph"`
				Session string `json:"session"`
				SQL     string `json:"sql"`
				Args    []any  `json:"args"`
				Stream  bool   `json:"stream"`
				Trace   bool   `json:"trace"`
			}
			if err := json.Unmarshal(rq.body, &body); err != nil {
				t.Fatalf("%s: body %s: %v", w.name, rq.body, err)
			}
			if body.Graph != w.graph || body.SQL != rq.sql || len(body.Args) != len(rq.args) ||
				body.Stream != w.stream || !body.Trace || (body.Session != "") != w.session {
				t.Fatalf("%s: body %s does not match the workload", w.name, rq.body)
			}
			// Cold workloads never repeat a request; mixed_rw repeats its
			// hot reads by design.
			if w.hitRatio == 0 {
				if seen[string(rq.body)] {
					t.Fatalf("%s: request %d repeats: %s", w.name, i, rq.body)
				}
				seen[string(rq.body)] = true
			}
		}
	}
}

func TestLoadScriptBatchesInserts(t *testing.T) {
	e := smallEnv(t, 7)
	script := loadScript(e.ds, findWorkload("batch128_indexed"), e.pairSrc, e.pairDst)
	for table, rows := range map[string]int{"persons": len(e.ds.PersonIDs), "friends": len(e.ds.Src), "pairs": pairsRows} {
		want := (rows + insertRows - 1) / insertRows
		if n := bytes.Count([]byte(script), []byte("INSERT INTO "+table+" VALUES")); n != want {
			t.Errorf("%d INSERTs into %s for %d rows, want %d", n, table, rows, want)
		}
	}
	if bytes.Contains([]byte(script), []byte("visits")) {
		t.Error("batch128_indexed does not use the visits table")
	}
}
