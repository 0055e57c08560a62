package server

import (
	"container/list"
	"strconv"
	"sync"

	"graphsql"
	"graphsql/internal/fault"
	"graphsql/internal/wire"
)

// ResultCache is the server's result-set cache: an LRU over complete
// SELECT results keyed by (graph name, registry generation, engine
// data version, statement text, bound arguments).
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
// The statement half of a key is the request's graphsql.Stmt: its
// fingerprint-normalized text (statement literals rewritten to
// placeholders, the extracted values folded into the typed argument
// list), so the literal form of a point lookup and its parameterized
// form share one entry.
//
// Entries are the rows a response already encoded (wire.Encoded: one
// byte slice plus each row's end), so a hit writes them again — as one
// buffered body or in stream frames of any size — encoding no cell. An
// entry's size is exact: its key, encoded rows and row ends, which
// CacheBytes bounds. Entries larger than a quarter of the byte budget
// are never admitted, so one huge result cannot wipe the working set.
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
	rows  *wire.Encoded
	bytes int64 // key + rows.Size()
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

// cacheKey builds the lookup key: the graph name (length-prefixed),
// the registry generation and data version (each ':'-terminated), then
// the statement's own key — its executed text and type-tagged argument
// values (Stmt.AppendKey). Every field is self-delimiting, so no
// payload byte — a NUL inside a string argument, a separator lookalike
// in a graph name — can shift field boundaries and collide two
// distinct requests onto one key, and 1 (BIGINT), 1.0 (DOUBLE) and the
// string "1" stay distinct.
func cacheKey(graph string, generation int64, dataVersion uint64, st *graphsql.Stmt) string {
	b := make([]byte, 0, 64+len(graph)+len(st.Fingerprint()))
	b = strconv.AppendInt(b, int64(len(graph)), 10)
	b = append(b, ':')
	b = append(b, graph...)
	b = strconv.AppendInt(b, generation, 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, dataVersion, 10)
	b = append(b, ':')
	return string(st.AppendKey(b))
}

// Get returns the cached result's encoded rows, promoting the entry to
// most-recently-used. The rows are shared: callers only read them.
func (rc *ResultCache) Get(key string) (*wire.Encoded, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[key]
	if !ok {
		rc.misses++
		return nil, false
	}
	rc.hits++
	rc.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rows, true
}

// Put encodes a result and inserts it. A result with a cell that has
// no JSON encoding is not cached.
func (rc *ResultCache) Put(key, graph string, res *graphsql.Result) {
	rows := wire.NewEncoded(res.Columns)
	if rows.Append(res.Rows) == nil {
		rc.insert(key, graph, rows)
	}
}

// insert adds rows nobody writes to any more, evicting least-recently
// used entries until the budgets hold; rows bigger than a quarter of
// the byte budget are dropped instead.
func (rc *ResultCache) insert(key, graph string, rows *wire.Encoded) {
	// A cache-insert fault skips the insert: the result itself is
	// complete and still goes out, so losing only the cache admission is
	// the correct degraded behavior (and what the chaos harness asserts).
	if fault.Inject(fault.PointCacheInsert) != nil {
		return
	}
	e := &cacheEntry{key: key, graph: graph, rows: rows, bytes: int64(len(key)) + rows.Size()}
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

// AdmissionBudget reports the per-entry byte ceiling; the streaming
// miss path keeps the rows it has written only while they fit it.
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
