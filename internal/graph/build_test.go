package graph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// The graph-build phases — dictionary encode and CSR construction —
// each have one core, written against a worker count. These tests hold
// the cores to independent references that share no code with them:
// the CSR is the edge rows stably ordered by source, and the dense ids
// are first occurrences over the concatenated key stream. The
// references are the spec, so a change to the build semantics must
// change them too.

// buildWorkers are the worker counts every core is checked at.
var buildWorkers = []int{1, 2, 3, 7}

// referenceCSR builds the CSR the spec defines: row ids stably ordered
// by source, so the edges of one vertex keep their row order. Out of
// range ids are reported as the first bad source row, else the first
// bad destination row.
func referenceCSR(n int, src, dst []VertexID) (*CSR, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch: %d vs %d", len(src), len(dst))
	}
	for _, s := range src {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("graph: source id %d out of range [0,%d)", s, n)
		}
	}
	for _, d := range dst {
		if d < 0 || int(d) >= n {
			return nil, fmt.Errorf("graph: destination id %d out of range [0,%d)", d, n)
		}
	}
	g := &CSR{N: n, Offsets: make([]int64, n+1), Targets: make([]VertexID, len(src)), Perm: make([]int32, len(src))}
	for row := range g.Perm {
		g.Perm[row] = int32(row)
	}
	sort.SliceStable(g.Perm, func(a, b int) bool { return src[g.Perm[a]] < src[g.Perm[b]] })
	for pos, row := range g.Perm {
		g.Targets[pos] = dst[row]
		g.Offsets[src[row]+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g, nil
}

// referenceTranspose builds the transpose the spec defines: the
// sources of every vertex's in-edges, in row order, and no Perm.
func referenceTranspose(n int, src, dst []VertexID) *CSR {
	in := make([][]VertexID, n)
	for row, d := range dst {
		in[d] = append(in[d], src[row])
	}
	g := &CSR{N: n, Offsets: make([]int64, n+1), Targets: make([]VertexID, 0, len(src))}
	for v, sources := range in {
		g.Targets = append(g.Targets, sources...)
		g.Offsets[v+1] = int64(len(g.Targets))
	}
	return g
}

// referenceEncode assigns dense ids by first occurrence over pre (keys
// the dictionary already holds) followed by the concatenated columns.
func referenceEncode[K comparable](pre []K, cols [][]K) (map[K]VertexID, [][]VertexID) {
	ids := map[K]VertexID{}
	intern := func(k K) VertexID {
		id, ok := ids[k]
		if !ok {
			id = VertexID(len(ids))
			ids[k] = id
		}
		return id
	}
	for _, k := range pre {
		intern(k)
	}
	outs := make([][]VertexID, len(cols))
	for c, col := range cols {
		outs[c] = make([]VertexID, len(col))
		for i, k := range col {
			outs[c][i] = intern(k)
		}
	}
	return ids, outs
}

// checkCSR runs the CSR core at each worker count and compares it with
// the reference: the same CSR, or the same error. A valid input's
// transpose is checked against its reference too.
func checkCSR(t *testing.T, name string, n int, src, dst []VertexID, workers ...int) {
	t.Helper()
	want, wantErr := referenceCSR(n, src, dst)
	for _, w := range workers {
		got, err := buildCSR(context.Background(), n, src, dst, w)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s, %d workers: error %v, want %v", name, w, err, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s, %d workers: CSR differs from the reference\nwant %+v\ngot  %+v", name, w, want, got)
		}
	}
	if wantErr == nil {
		checkTranspose(t, name, n, src, dst, workers...)
	}
}

// checkTranspose builds the transpose at each parallelism and compares
// it with the reference.
func checkTranspose(t *testing.T, name string, n int, src, dst []VertexID, parallelisms ...int) {
	t.Helper()
	want := referenceTranspose(n, src, dst)
	for _, p := range parallelisms {
		got, err := BuildTransposeCtx(context.Background(), n, src, dst, p)
		if err != nil {
			t.Fatalf("%s, parallelism %d: transpose: %v", name, p, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s, parallelism %d: transpose differs from the reference\nwant %+v\ngot  %+v", name, p, want, got)
		}
	}
}

// checkEncode runs the encode core over a dictionary holding pre at
// each parallelism and compares the ids and the dictionary with the
// reference. With the gates open, parallelism is the worker count.
func checkEncode[K comparable](t *testing.T, name string, pre []K, cols [][]K, parallelisms ...int) {
	t.Helper()
	wantDict, want := referenceEncode(pre, cols)
	for _, p := range parallelisms {
		dict := map[K]VertexID{}
		next := VertexID(0)
		for _, k := range pre {
			if _, ok := dict[k]; !ok {
				dict[k] = next
				next++
			}
		}
		got := make([][]VertexID, len(cols))
		for c, col := range cols {
			got[c] = make([]VertexID, len(col))
		}
		if err := encode(context.Background(), dict, &next, cols, got, p); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s, parallelism %d: ids differ from the reference\nwant %v\ngot  %v", name, p, want, got)
		}
		if !reflect.DeepEqual(wantDict, dict) || int(next) != len(wantDict) {
			t.Fatalf("%s, parallelism %d: dictionary (|V| = %d) differs from the reference (|V| = %d)", name, p, next, len(wantDict))
		}
	}
}

type picker interface{ Intn(n int) int }

// bytePicker draws from fuzz input; exhausted input reads as zeros.
type bytePicker struct{ data []byte }

func (p *bytePicker) Intn(n int) int {
	v := 0
	for width := 1; width < n && len(p.data) > 0; width <<= 8 {
		v = v<<8 | int(p.data[0])
		p.data = p.data[1:]
	}
	return v % n
}

// genEdges draws a CSR input over up to maxN vertices and maxM rows,
// with a few out-of-range ids when bad is set.
func genEdges(p picker, maxN, maxM int, bad bool) (int, []VertexID, []VertexID) {
	n := 1 + p.Intn(maxN)
	m := p.Intn(maxM + 1)
	src := make([]VertexID, m)
	dst := make([]VertexID, m)
	for i := range src {
		src[i], dst[i] = VertexID(p.Intn(n)), VertexID(p.Intn(n))
		if bad && p.Intn(32) == 0 {
			wrong := []VertexID{-1, VertexID(n), VertexID(n + 7)}[p.Intn(3)]
			if p.Intn(2) == 0 {
				src[i] = wrong
			} else {
				dst[i] = wrong
			}
		}
	}
	return n, src, dst
}

// genKeys draws a source and a destination key column over a small
// domain, so keys repeat within and across the columns, plus a few keys
// the dictionary holds beforehand.
func genKeys(p picker, maxM int) (pre []int64, cols [][]int64) {
	domain := 1 + p.Intn(maxM+1)
	cols = make([][]int64, 2)
	for c := range cols {
		cols[c] = make([]int64, p.Intn(maxM+1))
		for i := range cols[c] {
			cols[c][i] = int64(p.Intn(domain))
		}
	}
	pre = make([]int64, p.Intn(4))
	for i := range pre {
		pre[i] = int64(p.Intn(2 * domain))
	}
	return pre, cols
}

// stringKeys maps int keys onto the string key space.
func stringKeys(keys []int64) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = "v" + strconv.FormatInt(k, 10)
	}
	return out
}

// TestBuildCSRParallelMatchesSequential checks the CSR core against
// the reference at 1, 2, 3 and 7 workers for random inputs, including
// the empty and single-vertex corners.
func TestBuildCSRParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkCSR(t, "empty", 3, nil, nil, buildWorkers...)
	for trial := 0; trial < 200; trial++ {
		n, src, dst := genEdges(rng, 50, 300, false)
		checkCSR(t, fmt.Sprintf("trial %d", trial), n, src, dst, buildWorkers...)
	}
}

// TestBuildCSRParallelErrors checks the core reports the first
// out-of-range source row, else the first out-of-range destination
// row, at every worker count.
func TestBuildCSRParallelErrors(t *testing.T) {
	src := make([]VertexID, 100)
	dst := make([]VertexID, 100)
	src[60] = 77 // out of range for n=10
	src[40] = 99
	dst[30] = -1
	checkCSR(t, "bad source", 10, src, dst, buildWorkers...)
	// Destination errors surface once sources are valid.
	src[40], src[60] = 0, 0
	checkCSR(t, "bad destination", 10, src, dst, buildWorkers...)
	checkCSR(t, "length mismatch", 10, src, dst[:50], buildWorkers...)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n, src, dst := genEdges(rng, 20, 200, true)
		checkCSR(t, fmt.Sprintf("trial %d", trial), n, src, dst, buildWorkers...)
	}
}

// TestBulkEncodeMatchesSequential checks the encode core against the
// reference at 1, 2, 3 and 7 workers, over empty and pre-populated
// dictionaries (the delta-refresh case), for int and string keys.
func TestBulkEncodeMatchesSequential(t *testing.T) {
	openGates(t)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		pre, cols := genKeys(rng, 300)
		name := fmt.Sprintf("trial %d", trial)
		checkEncode(t, name, pre, cols, buildWorkers...)
		checkEncode(t, name+" (strings)", stringKeys(pre), [][]string{stringKeys(cols[0]), stringKeys(cols[1])}, buildWorkers...)
	}
}

// TestBuildCSRParallelPublicThreshold runs the public entry point at
// parallelism 2 over exactly minParallelCSREdges-1 rows (one worker)
// and minParallelCSREdges rows (two workers), with the gate left at its
// default.
func TestBuildCSRParallelPublicThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 5000
	for _, m := range []int{minParallelCSREdges - 1, minParallelCSREdges} {
		src := make([]VertexID, m)
		dst := make([]VertexID, m)
		for i := range src {
			src[i], dst[i] = VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		}
		want, _ := referenceCSR(n, src, dst)
		got, err := BuildCSRParallelCtx(context.Background(), n, src, dst, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d edges: CSR differs from the reference", m)
		}
		checkTranspose(t, fmt.Sprintf("%d edges", m), n, src, dst, 2)
	}
}

// TestBulkEncodeAtDefaultGate runs the public entry points at
// parallelism 2 over exactly minParallelEncodeKeys-1 keys (one worker)
// and minParallelEncodeKeys keys (two workers), with the gate left at
// its default, over a dictionary that already holds a key.
func TestBulkEncodeAtDefaultGate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, total := range []int{minParallelEncodeKeys - 1, minParallelEncodeKeys} {
		// Unequal columns, so a range boundary falls inside one.
		cols := [][]int64{make([]int64, total/3), make([]int64, total-total/3)}
		for _, col := range cols {
			for i := range col {
				col[i] = int64(rng.Intn(total / 4))
			}
		}
		pre := []int64{int64(total)}
		_, want := referenceEncode(pre, cols)
		ints := NewIntDict(0)
		ints.EncodeInt(pre[0])
		got := [][]VertexID{make([]VertexID, len(cols[0])), make([]VertexID, len(cols[1]))}
		if err := ints.EncodeColumnsIntCtx(context.Background(), cols, got, 2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d int keys: ids differ from the reference", total)
		}
		strs := NewStringDict(0)
		strs.EncodeString(stringKeys(pre)[0])
		got = [][]VertexID{make([]VertexID, len(cols[0])), make([]VertexID, len(cols[1]))}
		if err := strs.EncodeColumnsStringCtx(context.Background(), [][]string{stringKeys(cols[0]), stringKeys(cols[1])}, got, 2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) || strs.Len() != ints.Len() {
			t.Fatalf("%d string keys: ids differ from the reference", total)
		}
	}
}

// FuzzGraphBuild drives both build cores from fuzz input: the
// randomized tests' generators draw from the input instead of a seeded
// rand.Rand. Each case runs at 1 and 3 workers against the references.
// The seed corpus is generator output for a range of seeds.
func FuzzGraphBuild(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 64+r.Intn(512))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		openGates(t)
		p := &bytePicker{data: data}
		n, src, dst := genEdges(p, 40, 200, true)
		checkCSR(t, "fuzz", n, src, dst, 1, 3)
		pre, cols := genKeys(p, 200)
		checkEncode(t, "fuzz", pre, cols, 1, 3)
	})
}
