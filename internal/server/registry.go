package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"graphsql"
	"graphsql/internal/wire"
)

// Registry is the named multi-graph catalog of the server. Each entry
// holds an atomic pointer to a fully-built database: a (re)load builds
// the replacement off to the side — script, indexes and all — and
// swaps the pointer only when it is complete (copy-on-swap). Queries
// in flight keep the generation they resolved; nothing is mutated
// under them, and the old generation is garbage-collected once the
// last query over it finishes.
type Registry struct {
	// parallelism is the engine default handed to every loaded DB.
	parallelism int

	mu     sync.RWMutex
	graphs map[string]*graphEntry
}

type graphEntry struct {
	name       string
	db         atomic.Pointer[graphsql.DB]
	generation atomic.Int64
}

// NewRegistry builds a registry whose databases default to the given
// worker budget (0 = one worker per CPU).
func NewRegistry(parallelism int) *Registry {
	return &Registry{parallelism: parallelism, graphs: make(map[string]*graphEntry)}
}

// Get resolves the current database of a named graph.
func (r *Registry) Get(name string) (*graphsql.DB, bool) {
	r.mu.RLock()
	e, ok := r.graphs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.db.Load(), true
}

// Resolve returns a named graph's database and generation as one
// consistent pair: the read happens under the registry lock, which a
// reload's swap+bump holds, so a caller can never observe the previous
// database with the new generation. The result cache keys on the pair.
func (r *Registry) Resolve(name string) (*graphsql.DB, int64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	if !ok {
		return nil, 0, false
	}
	return e.db.Load(), e.generation.Load(), true
}

// Load builds a fresh database from the script (and optional graph
// indexes) and swaps it in under the given name, creating the entry if
// needed. On any error — including ctx being canceled, which is checked
// between the script's statements and before each index build — the
// previous generation stays untouched.
func (r *Registry) Load(ctx context.Context, name, script string, indexes []wire.IndexSpec) (generation int64, tables int, err error) {
	db := graphsql.Open(graphsql.WithParallelism(r.parallelism))
	if script != "" {
		if _, serr := db.ExecScript(ctx, script); serr != nil {
			return 0, 0, fmt.Errorf("load script: %w", serr)
		}
	}
	for _, ix := range indexes {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		if err := db.BuildGraphIndex(ix.Table, ix.Src, ix.Dst); err != nil {
			return 0, 0, fmt.Errorf("index %s(%s,%s): %w", ix.Table, ix.Src, ix.Dst, err)
		}
	}
	tables, _ = db.TableStats()
	return r.swap(name, db), tables, nil
}

// swap installs db as the named graph's current database and returns
// its generation. Swap and generation bump stay under the registry lock
// so the reported generation always names the database that is serving
// (concurrent loads of one graph serialize here; readers only touch the
// atomics).
func (r *Registry) swap(name string, db *graphsql.DB) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok {
		e = &graphEntry{name: name}
		r.graphs[name] = e
	}
	e.db.Store(db)
	return e.generation.Add(1)
}

// GraphInfo is one registry entry's /stats view. The plan-cache
// counters aggregate over every session of the graph's current
// database: fingerprint normalization folds literal variants of one
// statement shape onto a shared plan, and these counters are how
// operators see whether that sharing actually happens for their
// workload.
type GraphInfo struct {
	Name            string `json:"name"`
	Generation      int64  `json:"generation"`
	Tables          int    `json:"tables"`
	Rows            int    `json:"rows"`
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
}

// Info lists the registered graphs sorted by name.
func (r *Registry) Info() []GraphInfo {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		info := GraphInfo{Name: e.name, Generation: e.generation.Load()}
		if db := e.db.Load(); db != nil {
			info.Tables, info.Rows = db.TableStats()
			info.PlanCacheHits, info.PlanCacheMisses = db.PlanCacheStats()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
