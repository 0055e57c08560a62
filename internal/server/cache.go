package server

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"graphsql"
	"graphsql/internal/fault"
	"graphsql/internal/sql/lexer"
)

// ResultCache is the server's result-set cache: an LRU over fully
// materialized SELECT results keyed by (graph name, registry
// generation, engine data version, statement text, bound arguments).
// Repeated SELECTs are served straight from it without touching the
// engine — no parse, no plan, no admission slot.
//
// Staleness is handled by the key, not by scanning: a copy-on-swap
// reload bumps the graph's registry generation and every write
// statement bumps the database's data version (see DB.DataVersion), so
// a result computed before either can never be looked up afterwards.
// Writes and reloads additionally purge the graph's entries eagerly
// (InvalidateGraph) so dead entries release memory immediately instead
// of aging out of the LRU.
//
// Lookup keys are fingerprint-normalized by the caller (statement
// literals rewritten to placeholders, the extracted values folded into
// the typed argument list — internal/sql/fingerprint), so the literal
// form of a point lookup and its parameterized form share one entry.
//
// Entries hold a single representation: the materialized Result. The
// buffered JSON encoding is derived on demand (the wire encoding is
// deterministic, so a buffered hit stays byte-identical to a fresh
// execution) and streaming hits re-chunk the rows — storing only one
// form roughly doubles the hit capacity of a given byte budget.
// Entries larger than a quarter of the byte budget are never admitted,
// so one huge result cannot wipe the working set.
type ResultCache struct {
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	bytes   int64

	hits, misses, evictions, invalidated uint64
}

type cacheEntry struct {
	key   string
	graph string
	res   *graphsql.Result
	// bytes memoizes resultFootprint(res) + key + overhead, so LRU
	// eviction never re-walks the rows.
	bytes int64
}

// cacheEntryOverhead approximates the bookkeeping bytes per entry on
// top of the result payload (list element, map bucket, key).
const cacheEntryOverhead = 256

func entrySize(key string, res *graphsql.Result) int64 {
	return resultFootprint(res) + int64(len(key)) + cacheEntryOverhead
}

// resultFootprint approximates the resident bytes of a materialized
// Result. Boxed cells dominate: an interface value plus the boxed
// payload runs ~24 bytes even for an int64 cell, and variable-size
// payloads (strings, nested path tables) add their own bytes on top —
// with no encoded copy retained, the row walk must count them itself.
func resultFootprint(res *graphsql.Result) int64 {
	if res == nil {
		return 0
	}
	const perRow = 24  // row slice header
	const perCell = 24 // interface header + boxed payload
	total := int64(len(res.Rows)) * perRow
	for _, row := range res.Rows {
		total += int64(len(row)) * perCell
		for _, cell := range row {
			total += cellPayload(cell)
		}
	}
	return total
}

// cellPayload counts the variable-size bytes of one cell beyond its
// boxed header: string contents and nested path tables. Fixed-size
// cells (int64, float64, bool, time.Time) are covered by the per-cell
// constant.
func cellPayload(cell any) int64 {
	switch t := cell.(type) {
	case string:
		return int64(len(t))
	case *graphsql.Path:
		if t == nil {
			return 0
		}
		var n int64
		for _, c := range t.Columns {
			n += int64(len(c))
		}
		n += int64(len(t.Rows)) * 24
		for _, row := range t.Rows {
			n += int64(len(row)) * 24
			for _, pc := range row {
				n += cellPayload(pc)
			}
		}
		return n
	}
	return 0
}

// NewResultCache builds a cache bounded by both an entry count and a
// byte budget (callers pass resolved positive limits).
func NewResultCache(maxEntries int, maxBytes int64) *ResultCache {
	return &ResultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		entries:    make(map[string]*list.Element),
	}
}

// cacheKey builds the lookup key; it returns "" when the request is
// not cacheable (an argument of a type the normalizer never produces).
// Every field is length-prefixed (netstring style), so no payload byte
// — a NUL inside a string argument, a separator lookalike in a graph
// name — can shift field boundaries and collide two distinct requests
// onto one key; argument values are additionally type-tagged so 1
// (BIGINT), 1.0 (DOUBLE) and the string "1" stay distinct.
func cacheKey(graph string, generation int64, dataVersion uint64, sql string, args []any) string {
	var b strings.Builder
	b.Grow(len(graph) + len(sql) + 32*len(args) + 64)
	field := func(tag byte, payload string) {
		b.WriteByte(tag)
		b.WriteString(strconv.Itoa(len(payload)))
		b.WriteByte(':')
		b.WriteString(payload)
	}
	field('g', graph)
	field('v', strconv.FormatInt(generation, 10))
	field('d', strconv.FormatUint(dataVersion, 10))
	field('q', sql)
	for _, a := range args {
		switch t := a.(type) {
		case nil:
			field('n', "")
		case bool:
			if t {
				field('b', "1")
			} else {
				field('b', "0")
			}
		case int:
			field('i', strconv.FormatInt(int64(t), 10))
		case int64:
			field('i', strconv.FormatInt(t, 10))
		case float64:
			field('f', strconv.FormatFloat(t, 'g', -1, 64))
		case string:
			field('s', t)
		default:
			return ""
		}
	}
	return b.String()
}

// cacheableSQL reports whether a statement may be served from (and
// admitted into) the cache: only reads qualify. The dialect's only
// read statements open with SELECT or WITH, so a keyword sniff is
// exact — anything else executes normally and misclassification is
// impossible (no write statement can start with either keyword).
func cacheableSQL(sql string) bool {
	kw := firstKeyword(sql)
	return kw == "select" || kw == "with"
}

// invalidatingSQL reports whether a statement may change data and must
// purge the graph's cached results (the data-version key already
// protects correctness; the purge frees memory eagerly).
func invalidatingSQL(sql string) bool {
	switch firstKeyword(sql) {
	case "insert", "delete", "create", "drop":
		return true
	}
	return false
}

// firstKeyword returns the statement's leading keyword, lower-cased,
// by asking the engine's own lexer for the first token — whatever
// whitespace and comment forms the lexer skips, this skips, so a
// client tagging queries with a comment prefix classifies the same as
// the bare statement. Anything that does not open with a reserved word
// (including lex errors) yields "".
func firstKeyword(sql string) string {
	tok, err := lexer.New(sql).Next()
	if err != nil || tok.Type != lexer.Keyword {
		return ""
	}
	return strings.ToLower(tok.Text)
}

// Get returns the cached result, promoting the entry to
// most-recently-used. Callers derive whichever response form they need
// (buffered encoding or streamed chunks) from the result.
func (rc *ResultCache) Get(key string) (*graphsql.Result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[key]
	if !ok {
		rc.misses++
		return nil, false
	}
	rc.hits++
	rc.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put inserts a result, evicting least-recently-used entries until the
// budgets hold. Results bigger than a quarter of the byte budget are
// dropped instead of cached.
func (rc *ResultCache) Put(key, graph string, res *graphsql.Result) {
	// A cache-insert fault skips the insert: the result itself is
	// complete and still goes out, so losing only the cache admission is
	// the correct degraded behavior (and what the chaos harness asserts).
	if fault.Inject(fault.PointCacheInsert) != nil {
		return
	}
	e := &cacheEntry{key: key, graph: graph, res: res, bytes: entrySize(key, res)}
	if e.bytes > rc.maxBytes/4 {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[key]; ok {
		// Racing fill of the same key: keep the incumbent (identical by
		// construction — same data version).
		rc.ll.MoveToFront(el)
		return
	}
	rc.entries[key] = rc.ll.PushFront(e)
	rc.bytes += e.bytes
	for (len(rc.entries) > rc.maxEntries || rc.bytes > rc.maxBytes) && rc.ll.Len() > 1 {
		rc.evictLocked(rc.ll.Back())
		rc.evictions++
	}
}

// AdmissionBudget reports the per-entry byte ceiling; callers that
// accumulate rows speculatively (the streaming miss path) use it to
// stop buffering as soon as an entry could no longer be admitted.
func (rc *ResultCache) AdmissionBudget() int64 {
	return rc.maxBytes / 4
}

func (rc *ResultCache) evictLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	rc.ll.Remove(el)
	delete(rc.entries, e.key)
	rc.bytes -= e.bytes
}

// InvalidateGraph drops every entry of the named graph (reload or
// write); it returns the number of entries purged.
func (rc *ResultCache) InvalidateGraph(graph string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := 0
	for el := rc.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).graph == graph {
			rc.evictLocked(el)
			n++
		}
		el = next
	}
	rc.invalidated += uint64(n)
	return n
}

// CacheSnapshot is the cache's point-in-time view for /stats and
// /metrics.
type CacheSnapshot struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxEntries  int    `json:"max_entries"`
	MaxBytes    int64  `json:"max_bytes"`
	Evictions   uint64 `json:"evictions"`
	Invalidated uint64 `json:"invalidated_entries"`
}

// Snapshot reads the cache counters.
func (rc *ResultCache) Snapshot() CacheSnapshot {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return CacheSnapshot{
		Hits:        rc.hits,
		Misses:      rc.misses,
		Entries:     len(rc.entries),
		Bytes:       rc.bytes,
		MaxEntries:  rc.maxEntries,
		MaxBytes:    rc.maxBytes,
		Evictions:   rc.evictions,
		Invalidated: rc.invalidated,
	}
}
