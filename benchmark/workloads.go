package main

// The eight workloads: what each one sends, which cache regime it
// declares, and how its answers are checked. README.md has the table of
// which layer each isolates. BENCHMARK.json lists the three of them the
// driver gates a change on (and why each was chosen): the driver's time
// cap leaves room for three workloads with windows long enough to repeat
// on the reference host, not for eight.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"

	"graphsql/internal/bench"
	"graphsql/internal/ldbc"
)

const (
	q14PathSQL = `SELECT CHEAPEST SUM(f: iweight) AS (cost, path) WHERE ? REACHES ? OVER friends f EDGE (src, dst)`
	batchSQL   = `SELECT p.src, p.dst, CHEAPEST SUM(1) AS cost FROM pairs p ` +
		`WHERE p.seq >= ? AND p.seq < ? AND p.src REACHES p.dst OVER friends EDGE (src, dst)`
	scanSQL         = `SELECT src, dst, weight FROM friends WHERE weight > ?`
	topnSQL         = scanSQL + ` ORDER BY weight DESC, src, dst LIMIT 100`
	insertFriendSQL = `INSERT INTO friends VALUES (?, ?, DATE '2013-01-01', 1.0, 1)`
	insertVisitSQL  = `INSERT INTO visits VALUES (?, ?)`
)

// The scan workloads draw their threshold from [scanLo, scanLo+scanSpan):
// about 10k of SF1's 362k friends rows pass, ~10 stream frames. (The
// issue proposed ~40k rows; at that size one request takes ~55 ms and a
// round of a few seconds cannot support a tail percentile.)
const (
	scanLo   = 4.87
	scanSpan = 0.01
	topN     = 100
)

// frontend_cold must spend its time in the front end, not executing.
// The engine has no index, so a point read on the 9.9k-row persons
// table is a 2 ms scan next to a ~35 us plan stage; the workload
// therefore reads hubs, a table of the hubRows best-connected persons
// (the generator's skew puts them at the lowest indices), with an IN
// list of frontendIDs literal ids: frontendHits of them hubs, the rest
// other persons, which the table does not hold. The list was lengthened
// until the plan stage reached 40% of server-side time, as the issue
// asks: measured on SF1 it takes 32% with 12 ids on 32 rows, 39% with
// 48 on 16, 41-42% with 64 on 8 and no more with 96, because the
// server's time outside any stage span (request decode, the cache-key
// fingerprint) grows with the list too.
const (
	frontendIDs  = 64
	frontendHits = 4
	hubRows      = 8
)

// hubCount is hubRows, or every person of a dataset shrunk below that.
func hubCount(ds *ldbc.Dataset) int { return min(hubRows, len(ds.PersonIDs)) }

// hotPairs is the size of mixed_rw's hot read set.
const hotPairs = 8

// verifiedPrefix is how many requests of a graph workload are checked
// by value against precomputed oracle answers; later ones are checked
// structurally (shape, types, invariants that need no search).
const verifiedPrefix = 256

type opKind uint8

const (
	opRead opKind = iota
	opWriteFriends
	opWriteVisits
)

// request is one generated operation: the POST /query body plus the
// typed inputs its check needs.
type request struct {
	sql  string
	args []any // int64 or float64
	// body is assembled by take from the generator's current prefix, so
	// a request generated ahead of time still follows the pass's trace
	// setting.
	body []byte
	op   opKind
	a, b int64   // source/destination, or the batch window [a, b)
	f    float64 // scan threshold
	ids  []int64 // frontend_cold IN list
	// byValue marks a request of the verified prefix: its answer is
	// compared with the oracle's, computed before timing — (cost, reached)
	// of a single pair, or the costs of a batch window's connected pairs
	// in window order.
	byValue bool
	cost    int64
	reached bool
	costs   []int64
}

// layerSet names the graph-side layers a workload exercises, which
// selects the in-process call metrics reported for it.
type layerSet uint8

const (
	layerBuild    layerSet = 1 << iota // ad-hoc graph construction per query
	layerIndex                         // graph index built at load
	layerBFS                           // single-pair unweighted solve
	layerBatch                         // many-pair solve
	layerDijkstra                      // weighted solve with path
	layerRefresh                       // index delta refresh after a write
)

type workload struct {
	name    string
	graph   string
	indexed bool // graph index on friends(src, dst)
	pairs   bool // load the pairs table
	visits  bool // load the visits table
	hubs    bool // load the hubs table
	session bool // named session: the plan cache serves every request
	stream  bool
	clients int
	// hitRatio is the cache regime the workload declares, verified from
	// /stats deltas after every pass. 0 declares a cold workload: no
	// result-cache hit at all, and the plan cache hit by every request
	// of a named session and by none of a sessionless one. A positive
	// value is the floor of result-cache hits/(hits+misses).
	hitRatio float64
	layers   layerSet
	byValue  int    // how many leading requests are verified by value
	sql      string // the statement (frontend_cold: its shape; literals vary)
	// next generates client c's next request.
	next func(g *generator) *request
	// check verifies one answer; nil error means correct.
	check func(e *env, rq *request, r *response) error
}

var workloads = []*workload{
	{
		name: "q13_adhoc", graph: "ldbc_adhoc", session: true, clients: 1,
		layers: layerBuild, byValue: verifiedPrefix,
		sql: bench.Q13, next: nextPair, check: checkQ13,
	},
	{
		name: "q13_indexed", graph: "ldbc_indexed", indexed: true, session: true, clients: 1,
		layers: layerIndex | layerBFS, byValue: verifiedPrefix,
		sql: bench.Q13, next: nextPair, check: checkQ13,
	},
	{
		name: "q14_indexed_path", graph: "ldbc_indexed", indexed: true, session: true, clients: 1,
		layers: layerIndex | layerDijkstra, byValue: verifiedPrefix,
		sql: q14PathSQL, next: nextPair, check: checkQ14,
	},
	{
		name: "batch128_indexed", graph: "ldbc_indexed", indexed: true, pairs: true, session: true, clients: 1,
		// Every pair of a by-value batch costs the oracle a BFS.
		layers: layerIndex | layerBatch, byValue: verifiedPrefix / batchPairs,
		sql: batchSQL, next: nextBatch, check: checkBatch,
	},
	{
		name: "scan_stream", graph: "ldbc_adhoc", session: true, stream: true, clients: 1,
		byValue: verifiedPrefix,
		sql:     scanSQL, next: nextThreshold, check: checkScan,
	},
	{
		name: "topn_sort", graph: "ldbc_adhoc", session: true, clients: 1,
		sql: topnSQL, next: nextThreshold, check: checkTopN,
	},
	{
		name: "frontend_cold", graph: "ldbc_adhoc", hubs: true, clients: 1,
		sql:  `SELECT id, firstName, lastName FROM hubs WHERE id IN (...) ORDER BY lastName, firstName`,
		next: nextFrontend, check: checkFrontend,
	},
	{
		name: "mixed_rw", graph: "ldbc_rw", indexed: true, visits: true, session: true, clients: 2,
		hitRatio: 0.75, layers: layerIndex | layerBFS | layerRefresh,
		sql: bench.Q13, next: nextMixed, check: checkMixed,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rng is SplitMix64: the request streams must not depend on math/rand's
// algorithm, which Go does not promise to keep.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }
func newRng(seed uint64) *rng   { return &rng{state: seed} }

func (r *rng) shuffle(v []int64) {
	for i := len(v) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		v[i], v[j] = v[j], v[i]
	}
}

// mix derives an independent seed for one use (a workload's client, the
// pairs table, the hot set) from the run's seed.
func mix(seed, salt uint64) uint64 { return newRng(seed ^ salt*0xD6E8FEB86659FD93).next() }

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// generator produces one client's request stream. The stream is a pure
// function of (seed, workload, client): the same seed gives
// byte-identical bodies.
type generator struct {
	e      *env
	w      *workload
	rng    *rng
	client int
	n      int                   // requests generated so far
	seen   map[[2]int64]struct{} // keys already drawn, so no request repeats
	traced bool
	prefix []byte     // body up to the statement
	queue  []*request // requests generated ahead of time by prefill
}

func newGenerator(e *env, w *workload, client int) *generator {
	g := &generator{
		e: e, w: w, client: client,
		rng:  newRng(mix(e.seed, nameHash(w.name)+uint64(client))),
		seen: make(map[[2]int64]struct{}),
	}
	g.setTraced(false)
	return g
}

// setTraced selects whether the bodies generated from now on ask for
// the span tree.
func (g *generator) setTraced(traced bool) {
	g.traced = traced
	p := []byte(`{"graph":` + strconv.Quote(g.w.graph))
	if g.w.session {
		p = append(p, `,"session":"bench-`+strconv.Itoa(g.client)+`"`...)
	}
	if g.w.stream {
		p = append(p, `,"stream":true`...)
	}
	if traced {
		p = append(p, `,"trace":true`...)
	}
	g.prefix = append(p, `,"sql":`...)
}

// prefill generates the next n requests ahead of time and attaches the
// oracle's answers, so the searches run before the clock starts.
func (g *generator) prefill(n int) {
	for i := 0; i < n; i++ {
		rq := g.generate()
		g.e.precompute(g.w, rq)
		g.queue = append(g.queue, rq)
	}
}

// generate draws the stream's next request.
func (g *generator) generate() *request {
	rq := g.w.next(g)
	g.n++
	return rq
}

// take returns the next request of the stream with its body assembled.
func (g *generator) take() *request {
	var rq *request
	if len(g.queue) > 0 {
		rq, g.queue = g.queue[0], g.queue[1:]
	} else {
		rq = g.generate()
	}
	rq.body = appendStmt(append(make([]byte, 0, len(g.prefix)+len(rq.sql)+64), g.prefix...), rq.sql, rq.args)
	return rq
}

// appendStmt completes a request body with the statement text and its
// arguments.
func appendStmt(b []byte, sql string, args []any) []byte {
	q, _ := json.Marshal(sql)
	b = append(b, q...)
	if len(args) > 0 {
		b = append(b, `,"args":[`...)
		for i, a := range args {
			if i > 0 {
				b = append(b, ',')
			}
			switch v := a.(type) {
			case int64:
				b = strconv.AppendInt(b, v, 10)
			case float64:
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// fresh reports whether the key was not drawn before, and records it.
func (g *generator) fresh(a, b int64) bool {
	k := [2]int64{a, b}
	if _, dup := g.seen[k]; dup {
		return false
	}
	g.seen[k] = struct{}{}
	return true
}

func (g *generator) person() int64 {
	return g.e.ds.PersonIDs[g.rng.intn(len(g.e.ds.PersonIDs))]
}

// nextPair draws a uniform source/destination pair (the paper's §4
// workload) that this client has not sent before.
func nextPair(g *generator) *request {
	for {
		s, d := g.person(), g.person()
		if g.fresh(s, d) {
			return &request{a: s, b: d, sql: g.w.sql, args: []any{s, d}}
		}
	}
}

func nextBatch(g *generator) *request {
	for {
		lo := int64(g.rng.intn(pairsRows - batchPairs + 1))
		if g.fresh(lo, 0) {
			return &request{a: lo, b: lo + batchPairs, sql: g.w.sql, args: []any{lo, lo + batchPairs}}
		}
	}
}

func nextThreshold(g *generator) *request {
	for {
		t := scanLo + g.rng.float64()*scanSpan
		if g.fresh(int64(math.Float64bits(t)), 0) {
			return &request{f: t, sql: g.w.sql, args: []any{t}}
		}
	}
}

// nextFrontend draws an IN list of frontendHits hubs and, for the rest,
// persons the hubs table does not hold, in shuffled order.
func nextFrontend(g *generator) *request {
	ds, hubs := g.e.ds, hubCount(g.e.ds)
	ids := make([]int64, 0, frontendIDs)
	// draw appends n distinct ids of PersonIDs[lo:hi].
	draw := func(n, lo, hi int) {
		for want := len(ids) + n; len(ids) < want; {
			if id := ds.PersonIDs[lo+g.rng.intn(hi-lo)]; !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
	}
	hits := min(frontendHits, hubs)
	draw(hits, 0, hubs)
	if rest := min(frontendIDs-hits, len(ds.PersonIDs)-hubs); rest > 0 {
		draw(rest, hubs, len(ds.PersonIDs))
	}
	g.rng.shuffle(ids)
	sql := make([]byte, 0, 96+20*frontendIDs)
	sql = append(sql, `SELECT id, firstName, lastName FROM hubs WHERE id IN (`...)
	for i, id := range ids {
		if i > 0 {
			sql = append(sql, ", "...)
		}
		sql = strconv.AppendInt(sql, id, 10)
	}
	sql = append(sql, `) ORDER BY lastName, firstName`...)
	return &request{ids: ids, sql: string(sql)}
}

// nextMixed is 98% reads over the hot pairs, 1% edge inserts, 1% inserts
// into a table no read touches. The first hotPairs requests of every
// client read each hot pair once, so warm-up fills the result cache.
func nextMixed(g *generator) *request {
	i := g.n
	hot := g.e.hot
	if i < len(hot) {
		h := hot[i]
		return &request{a: h[0], b: h[1], sql: bench.Q13, args: []any{h[0], h[1]}}
	}
	switch roll := g.rng.intn(100); roll {
	case 0:
		for {
			s, d := g.person(), g.person()
			if s != d && g.fresh(s, d) {
				return &request{op: opWriteFriends, a: s, b: d, sql: insertFriendSQL, args: []any{s, d}}
			}
		}
	case 1:
		p, day := g.person(), int64(g.client)<<32|int64(i)
		return &request{op: opWriteVisits, a: p, b: day, sql: insertVisitSQL, args: []any{p, day}}
	default:
		h := hot[g.rng.intn(len(hot))]
		return &request{a: h[0], b: h[1], sql: bench.Q13, args: []any{h[0], h[1]}}
	}
}

// topRow is one row of topn_sort's answer.
type topRow struct {
	src, dst int64
	weight   float64
}

// env is what one run shares across its passes: the dataset, the
// oracle and the precomputed expectations.
type env struct {
	seed    uint64
	ds      *ldbc.Dataset
	oracle  *oracle
	weights []float64 // friends.weight as loaded (4 decimals), ascending
	top     []topRow  // the global top-N rows of topn_sort
	persons map[int64][2]string
	hubs    map[int64]bool // ids of the hubs table
	pairSrc []int64        // the pairs table
	pairDst []int64
	hot     [][2]int64 // mixed_rw's hot pairs
	hotCost []int64    // their pre-write oracle distances
}

// loadedWeight is the value the server holds for a generated weight:
// the script prints 4 decimals, like cmd/ldbcgen.
func loadedWeight(w float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(w, 'f', 4, 64), 64)
	return v
}

func newEnv(ds *ldbc.Dataset, seed uint64) *env {
	e := &env{seed: seed, ds: ds, oracle: newOracle(ds.Src, ds.Dst, ds.IWeight)}
	e.weights = make([]float64, len(ds.Weight))
	for i, w := range ds.Weight {
		e.weights[i] = loadedWeight(w)
	}
	// topn_sort's answer is the same for every threshold below the
	// N-th largest weight: the N best rows by (weight DESC, src, dst).
	order := make([]int, len(ds.Src))
	for i := range order {
		order[i] = i
	}
	w := e.weights
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if w[i] != w[j] {
			return w[i] > w[j]
		}
		if ds.Src[i] != ds.Src[j] {
			return ds.Src[i] < ds.Src[j]
		}
		return ds.Dst[i] < ds.Dst[j]
	})
	for _, i := range order[:min(topN, len(order))] {
		e.top = append(e.top, topRow{ds.Src[i], ds.Dst[i], w[i]})
	}
	e.weights = append([]float64(nil), e.weights...)
	sort.Float64s(e.weights)

	e.persons = make(map[int64][2]string, len(ds.PersonIDs))
	for i, id := range ds.PersonIDs {
		e.persons[id] = [2]string{ds.FirstNames[i], ds.LastNames[i]}
	}
	e.hubs = make(map[int64]bool, hubRows)
	for _, id := range ds.PersonIDs[:hubCount(ds)] {
		e.hubs[id] = true
	}
	e.pairSrc, e.pairDst = ds.RandomPairs(pairsRows, mix(seed, 1))
	e.pickHotPairs(newRng(mix(seed, 2)))
	return e
}

// pickHotPairs draws mixed_rw's hot set from the pairs at the graph's
// most common distance (3 hops at SF1). A miss costs one BFS to that
// depth, so the miss path — and with it latency_p90_ms — costs the same
// whatever the seed, instead of depending on how many of eight random
// pairs happen to be neighbours of neighbours.
func (e *env) pickHotPairs(r *rng) {
	type cand struct{ s, d, hops int64 }
	var cands []cand
	byHops := map[int64]int{}
	for len(cands) < 16*hotPairs {
		s := e.ds.PersonIDs[r.intn(len(e.ds.PersonIDs))]
		d := e.ds.PersonIDs[r.intn(len(e.ds.PersonIDs))]
		if h, ok := e.oracle.hops(s, d); ok && s != d {
			cands = append(cands, cand{s, d, h})
			byHops[h]++
		}
	}
	mode := int64(0)
	for h, n := range byHops {
		if n > byHops[mode] || n == byHops[mode] && h < mode {
			mode = h
		}
	}
	for _, c := range cands {
		if c.hops == mode && len(e.hot) < hotPairs {
			e.hot = append(e.hot, [2]int64{c.s, c.d})
			e.hotCost = append(e.hotCost, c.hops)
		}
	}
}

// precompute marks a request for verification by value and attaches the
// oracle's answer where the check does not compute it itself.
func (e *env) precompute(w *workload, rq *request) {
	rq.byValue = true
	switch w.sql {
	case bench.Q13:
		rq.cost, rq.reached = e.oracle.hops(rq.a, rq.b)
	case q14PathSQL:
		rq.cost, rq.reached = e.oracle.cost(rq.a, rq.b)
	case batchSQL:
		for p := rq.a; p < rq.b; p++ {
			if c, ok := e.oracle.hops(e.pairSrc[p], e.pairDst[p]); ok {
				rq.costs = append(rq.costs, c)
			}
		}
	}
}

func asInt(v any) (int64, error) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, fmt.Errorf("cell %v (%T) is not a number", v, v)
	}
	return n.Int64()
}

func asFloat(v any) (float64, error) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, fmt.Errorf("cell %v (%T) is not a number", v, v)
	}
	return n.Float64()
}

func wantShape(r *response, cols ...string) error {
	if len(r.columns) != len(cols) {
		return fmt.Errorf("columns %v, want %v", r.columns, cols)
	}
	for i, c := range cols {
		if r.columns[i] != c {
			return fmt.Errorf("columns %v, want %v", r.columns, cols)
		}
	}
	for _, row := range r.rows {
		if len(row) != len(cols) {
			return fmt.Errorf("row of %d cells under %d columns", len(row), len(cols))
		}
	}
	return nil
}

// checkCost verifies a single-pair answer: zero rows when unreachable,
// one row carrying the cost otherwise. Past the verified prefix only
// invariants that need no search are checked.
func checkCost(rq *request, r *response, costCol int) (int64, error) {
	if len(r.rows) > 1 {
		return 0, fmt.Errorf("%d rows for one pair", len(r.rows))
	}
	if rq.byValue && rq.reached != (len(r.rows) == 1) {
		return 0, fmt.Errorf("pair (%d,%d): got %d rows, oracle reached=%v", rq.a, rq.b, len(r.rows), rq.reached)
	}
	if len(r.rows) == 0 {
		return 0, nil
	}
	cost, err := asInt(r.rows[0][costCol])
	if err != nil {
		return 0, err
	}
	if rq.byValue && cost != rq.cost {
		return 0, fmt.Errorf("pair (%d,%d): cost %d, oracle %d", rq.a, rq.b, cost, rq.cost)
	}
	if (cost == 0) != (rq.a == rq.b) || cost < 0 {
		return 0, fmt.Errorf("pair (%d,%d): impossible cost %d", rq.a, rq.b, cost)
	}
	return cost, nil
}

func checkQ13(_ *env, rq *request, r *response) error {
	if len(r.columns) != 1 {
		return fmt.Errorf("columns %v, want one cost column", r.columns)
	}
	_, err := checkCost(rq, r, 0)
	return err
}

// checkQ14 verifies cost against the oracle and the path by validity:
// a chain of existing edges from source to destination whose weights
// sum to the reported cost. Together with cost optimality that makes it
// a shortest path without requiring it to be the oracle's.
func checkQ14(e *env, rq *request, r *response) error {
	if err := wantShape(r, "cost", "path"); err != nil {
		return err
	}
	cost, err := checkCost(rq, r, 0)
	if err != nil || len(r.rows) == 0 {
		return err
	}
	path, ok := r.rows[0][1].(map[string]any)
	if !ok {
		return fmt.Errorf("path cell is %T, want a nested table", r.rows[0][1])
	}
	cols, _ := path["columns"].([]any)
	col := map[string]int{}
	for i, c := range cols {
		if s, ok := c.(string); ok {
			col[s] = i
		}
	}
	si, sok := col["src"]
	di, dok := col["dst"]
	wi, wok := col["iweight"]
	if !sok || !dok || !wok {
		return fmt.Errorf("path columns %v lack src/dst/iweight", cols)
	}
	rows, _ := path["rows"].([]any)
	at, sum := rq.a, int64(0)
	for _, pr := range rows {
		cells, ok := pr.([]any)
		if !ok || len(cells) != len(cols) {
			return fmt.Errorf("malformed path row %v", pr)
		}
		s, err1 := asInt(cells[si])
		d, err2 := asInt(cells[di])
		w, err3 := asInt(cells[wi])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("malformed path row %v", pr)
		}
		if s != at {
			return fmt.Errorf("path breaks at %d: next edge starts at %d", at, s)
		}
		if !e.oracle.hasEdge(s, d, w) {
			return fmt.Errorf("path uses edge %d->%d (weight %d) that is not in the dataset", s, d, w)
		}
		at, sum = d, sum+w
	}
	if at != rq.b {
		return fmt.Errorf("path ends at %d, want %d", at, rq.b)
	}
	if sum != cost {
		return fmt.Errorf("path weights sum to %d, reported cost %d", sum, cost)
	}
	return nil
}

// checkBatch verifies the row count against oracle reachability for
// every request, the order and identity of the returned pairs, and —
// for the first requests, up to verifiedPrefix pairs — every cost.
func checkBatch(e *env, rq *request, r *response) error {
	if err := wantShape(r, "src", "dst", "cost"); err != nil {
		return err
	}
	i := 0
	for p := rq.a; p < rq.b; p++ {
		s, d := e.pairSrc[p], e.pairDst[p]
		if !e.oracle.connected(s, d) {
			continue
		}
		if i >= len(r.rows) {
			return fmt.Errorf("window [%d,%d): %d rows, oracle expects more", rq.a, rq.b, len(r.rows))
		}
		row := r.rows[i]
		i++
		gs, err1 := asInt(row[0])
		gd, err2 := asInt(row[1])
		gc, err3 := asInt(row[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("malformed row %v", row)
		}
		if gs != s || gd != d {
			return fmt.Errorf("window [%d,%d) row %d is pair (%d,%d), want (%d,%d)", rq.a, rq.b, i-1, gs, gd, s, d)
		}
		if (gc == 0) != (s == d) || gc < 0 {
			return fmt.Errorf("pair (%d,%d): impossible cost %d", s, d, gc)
		}
		if rq.byValue && (i > len(rq.costs) || rq.costs[i-1] != gc) {
			return fmt.Errorf("pair (%d,%d): cost %d differs from the oracle's", s, d, gc)
		}
	}
	if i != len(r.rows) {
		return fmt.Errorf("window [%d,%d): %d rows, oracle expects %d", rq.a, rq.b, len(r.rows), i)
	}
	return nil
}

// checkScan verifies the streamed row count against the oracle for
// every request and, in the verified prefix, the cells of the first
// frame.
func checkScan(e *env, rq *request, r *response) error {
	if len(r.columns) != 3 {
		return fmt.Errorf("columns %v, want src, dst, weight", r.columns)
	}
	if want := countAbove(e.weights, rq.f); r.rowCount != want {
		return fmt.Errorf("weight > %v: %d rows, oracle %d", rq.f, r.rowCount, want)
	}
	if !rq.byValue || r.frames == 0 {
		return nil
	}
	rows, err := r.decodeFirstFrame()
	if err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != 3 {
			return fmt.Errorf("row of %d cells", len(row))
		}
		s, err1 := asInt(row[0])
		d, err2 := asInt(row[1])
		w, err3 := asFloat(row[2])
		if err1 != nil || err2 != nil || err3 != nil || w <= rq.f {
			return fmt.Errorf("row %v does not satisfy weight > %v", row, rq.f)
		}
		if _, ok := e.persons[s]; !ok {
			return fmt.Errorf("row %v: src is not a person", row)
		}
		if _, ok := e.persons[d]; !ok {
			return fmt.Errorf("row %v: dst is not a person", row)
		}
	}
	return nil
}

func checkTopN(e *env, _ *request, r *response) error {
	if err := wantShape(r, "src", "dst", "weight"); err != nil {
		return err
	}
	if len(r.rows) != len(e.top) {
		return fmt.Errorf("%d rows, want %d", len(r.rows), len(e.top))
	}
	for i, row := range r.rows {
		s, err1 := asInt(row[0])
		d, err2 := asInt(row[1])
		w, err3 := asFloat(row[2])
		want := e.top[i]
		if err1 != nil || err2 != nil || err3 != nil || (topRow{s, d, w}) != want {
			return fmt.Errorf("row %d is %v, oracle %v", i, row, want)
		}
	}
	return nil
}

func checkFrontend(e *env, rq *request, r *response) error {
	if err := wantShape(r, "id", "firstName", "lastName"); err != nil {
		return err
	}
	want := 0
	for _, id := range rq.ids {
		if e.hubs[id] {
			want++
		}
	}
	if len(r.rows) != want {
		return fmt.Errorf("%d rows, %d of the %d ids are hubs", len(r.rows), want, len(rq.ids))
	}
	got := map[int64]bool{}
	var prev [2]string
	for i, row := range r.rows {
		id, err := asInt(row[0])
		if err != nil {
			return err
		}
		first, _ := row[1].(string)
		last, _ := row[2].(string)
		if p := e.persons[id]; !e.hubs[id] || got[id] || p != [2]string{first, last} {
			return fmt.Errorf("row %v is not hub %d, or repeats it", row, id)
		}
		key := [2]string{last, first}
		if i > 0 && (key[0] < prev[0] || key[0] == prev[0] && key[1] < prev[1]) {
			return fmt.Errorf("row %d breaks ORDER BY lastName, firstName", i)
		}
		prev = key
		got[id] = true
	}
	for _, id := range rq.ids {
		if e.hubs[id] && !got[id] {
			return fmt.Errorf("hub %d missing from the result", id)
		}
	}
	return nil
}

// checkMixed verifies reads by invariant: edges are only ever added,
// so a hot pair's distance can never exceed its pre-write oracle
// distance (and never drops below one hop).
func checkMixed(e *env, rq *request, r *response) error {
	if rq.op != opRead {
		return nil // a write succeeds by answering 200 without an error
	}
	if len(r.columns) != 1 || len(r.rows) != 1 {
		return fmt.Errorf("hot pair (%d,%d): %d rows, want 1", rq.a, rq.b, len(r.rows))
	}
	cost, err := asInt(r.rows[0][0])
	if err != nil {
		return err
	}
	for i, h := range e.hot {
		if h[0] == rq.a && h[1] == rq.b {
			if cost < 1 || cost > e.hotCost[i] {
				return fmt.Errorf("hot pair (%d,%d): cost %d outside [1, %d]", rq.a, rq.b, cost, e.hotCost[i])
			}
			return nil
		}
	}
	return fmt.Errorf("read of (%d,%d) is not a hot pair", rq.a, rq.b)
}
