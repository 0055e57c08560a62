package graph

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// The graph-build phases — dictionary encode and CSR construction —
// are held to independent references that share no code with them:
// the CSR is the edge rows stably ordered by source, and the dense ids
// are first occurrences over the concatenated key stream. The
// references are the spec, so a change to the build semantics must
// change them too.

// buildWorkers are the worker counts the CSR core is checked at.
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

// checkEncode encodes pre key by key into a fresh dictionary, then the
// columns in one bulk pass, once as int keys and once as string keys,
// and compares the ids and Len with the reference. The int dictionary
// must have taken the dense form exactly when pre is empty and the
// keys span at most a quarter of the keys in the stream. It is then
// probed around the range the bulk pass saw: LookupInt must find every
// key's id and NoVertex for absent keys, inside and outside the range,
// and EncodeInt of new keys below, inside and above the range must
// assign the reference's ids. checkEncode returns the int form.
func checkEncode(t *testing.T, name string, pre []int64, cols [][]int64) string {
	t.Helper()
	wantIDs, want := referenceEncode(pre, cols)
	ctx := context.Background()
	ints := NewIntDict(0)
	for _, k := range pre {
		ints.EncodeInt(k)
	}
	got := newIDColumns(cols)
	if err := ints.EncodeColumnsIntCtx(ctx, cols, got, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || ints.Len() != len(wantIDs) {
		t.Fatalf("%s, %s form: ids (|V| = %d) differ from the reference (|V| = %d)\nwant %v\ngot  %v", name, ints.Form(), ints.Len(), len(wantIDs), want, got)
	}
	strs := NewStringDict(0)
	for _, k := range stringKeys(pre) {
		strs.EncodeString(k)
	}
	strCols := make([][]string, len(cols))
	for c, col := range cols {
		strCols[c] = stringKeys(col)
	}
	got = newIDColumns(cols)
	if err := strs.EncodeColumnsStringCtx(ctx, strCols, got, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || strs.Len() != len(wantIDs) {
		t.Fatalf("%s, string keys: ids (|V| = %d) differ from the reference (|V| = %d)", name, strs.Len(), len(wantIDs))
	}

	keys := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, col := range cols {
		for _, k := range col {
			lo, hi = min(lo, k), max(hi, k)
		}
		keys += len(col)
	}
	// The span is taken in big.Int, where hi − lo cannot overflow.
	wantForm := "hash"
	if keys > 0 && len(pre) == 0 && new(big.Int).Sub(big.NewInt(hi), big.NewInt(lo)).Cmp(big.NewInt(int64(keys/4))) < 0 {
		wantForm = "dense"
	}
	if ints.Form() != wantForm {
		t.Fatalf("%s: %s form over %d keys spanning [%d, %d], want %s", name, ints.Form(), keys, lo, hi, wantForm)
	}
	if keys == 0 {
		return ints.Form()
	}
	// Probes: the range's ends and their outer neighbours (wrapping at
	// the int64 limits), the first key inside the range the stream
	// lacks, and the int64 limits themselves.
	probes := []int64{lo - 1, lo, hi, hi + 1, math.MinInt64, math.MaxInt64}
	for i, k := 0, lo; i <= len(wantIDs) && k < hi; i, k = i+1, k+1 {
		if _, ok := wantIDs[k]; !ok {
			probes = append(probes, k)
			break
		}
	}
	for _, k := range probes {
		id, ok := wantIDs[k]
		if !ok {
			id = NoVertex
		}
		if got := ints.LookupInt(k); got != id {
			t.Fatalf("%s, %s form: LookupInt(%d) = %d, want %d", name, ints.Form(), k, got, id)
		}
	}
	_, wantAll := referenceEncode(pre, append(cols[:len(cols):len(cols)], probes))
	for i, k := range probes {
		if got, id := ints.EncodeInt(k), wantAll[len(cols)][i]; got != id {
			t.Fatalf("%s, %s form: EncodeInt(%d) after the bulk pass = %d, want %d", name, ints.Form(), k, got, id)
		}
	}
	return ints.Form()
}

// newIDColumns allocates one id column per key column.
func newIDColumns(cols [][]int64) [][]VertexID {
	outs := make([][]VertexID, len(cols))
	for c, col := range cols {
		outs[c] = make([]VertexID, len(col))
	}
	return outs
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
// domain at an offset that may be negative, so keys repeat within and
// across the columns, plus a few keys the dictionary holds beforehand
// (none half the time, so the bulk pass may take the dense form). The
// domain is drawn freely, or its span is pinned just under, at or just
// over the dense form's bound of a quarter of the keys. Some draws also
// hold MinInt64 and MaxInt64, whose span overflows int64.
func genKeys(p picker, maxM int) (pre []int64, cols [][]int64) {
	cols = [][]int64{make([]int64, p.Intn(maxM+1)), make([]int64, p.Intn(maxM+1))}
	keys := len(cols[0]) + len(cols[1])
	domain := 1 + p.Intn(maxM+1)
	pinned := p.Intn(2) == 0 && keys >= 8
	if pinned {
		domain = keys/4 - 1 + p.Intn(3)
	}
	base := int64(p.Intn(2*maxM+1) - maxM)
	for c := range cols {
		for i := range cols[c] {
			cols[c][i] = base + int64(p.Intn(domain))
		}
	}
	// The stream's first and last keys are the domain's ends, so the
	// span is exactly the domain.
	at := func(i int) *int64 {
		if i < len(cols[0]) {
			return &cols[0][i]
		}
		return &cols[1][i-len(cols[0])]
	}
	if pinned {
		*at(0), *at(keys - 1) = base, base+int64(domain-1)
	}
	if keys >= 2 && p.Intn(8) == 0 {
		i := p.Intn(keys)
		*at(i), *at((i + 1 + p.Intn(keys-1)) % keys) = math.MinInt64, math.MaxInt64
	}
	if p.Intn(2) == 0 {
		pre = make([]int64, 1+p.Intn(3))
		for i := range pre {
			pre[i] = base + int64(p.Intn(2*domain))
		}
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

// TestBulkEncodeMatchesSequential checks the bulk encode against the
// reference over empty and pre-populated dictionaries (the delta-refresh
// case), unequal columns, and int and string keys, and requires the
// draws to reach both forms of the int dictionary.
func TestBulkEncodeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	forms := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		pre, cols := genKeys(rng, 300)
		forms[checkEncode(t, fmt.Sprintf("trial %d", trial), pre, cols)]++
	}
	if forms["dense"] == 0 || forms["hash"] == 0 {
		t.Fatalf("the draws reached the forms %v, want both", forms)
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

// FuzzGraphBuild drives both build phases from fuzz input: the
// randomized tests' generators draw from the input instead of a seeded
// rand.Rand. The CSR runs at 1 and 3 workers against its reference, and
// the keys are encoded as ints and as strings against theirs.
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
		checkEncode(t, "fuzz", pre, cols)
	})
}
