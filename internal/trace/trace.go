// Package trace is the per-query span recorder behind EXPLAIN ANALYZE,
// the "trace" wire field, the structured query log and the /queries
// in-flight listing.
//
// A *Trace is created once per query (or not at all) and threaded down
// the existing seams: the server brackets resolve/admission/encode, the
// facade brackets parse/fingerprint/plan-cache, each exec operator opens
// one span (rows out, wall time), and the shortest-path solver hands
// the span carried in the context its per-level frontier sizes and
// search counts, once per solve (AddSolve). All methods are
// nil-receiver-safe: a nil *Trace is the disabled path and performs no
// work and no allocations, so call sites never branch on "is tracing
// on".
//
// Timing uses a single time.Time epoch captured at New; every span
// start/end is a time.Since(epoch) — a monotonic-clock read — so spans
// are immune to wall-clock steps. Spans live in a slab preallocated
// with the trace (growing only past tracesSlabSize), keeping the traced
// path to one allocation per query in the common case.
package trace

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// SpanID indexes a span within its Trace. The zero Trace has no spans;
// NoSpan is the parent of root-level spans and the id returned by every
// method on a nil Trace.
type SpanID int32

// NoSpan is the nil span id: the parent of top-level spans, and what a
// disabled (nil) Trace returns from Begin.
const NoSpan SpanID = -1

const slabSize = 24

type span struct {
	name    string
	parent  SpanID
	start   time.Duration // offset from Trace epoch
	end     time.Duration // -1 while open
	rows    int64         // -1 = not an operator span
	batches int64         // pull-executor batches emitted; 0 = n/a
	workers int
	// index is how a GraphMatch span obtained its graph index ("" = no
	// index); graphVertices/graphEdges size the graph it built instead.
	// dict is the form of the dictionary of a graph it built, ad hoc or
	// by an index rebuild.
	index         string
	graphVertices int
	graphEdges    int
	dict          string
	// windowsScanned of windowsTotal zone windows a pruned scan read.
	windowsScanned int
	windowsTotal   int
	levels         []Level
	searches       Searches
}

// Trace records the spans of one query. Safe for concurrent use: the
// in-flight listing reads a trace while its query runs.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	slab  [slabSize]span

	planCacheHit    bool
	planCacheKnown  bool
	resultCacheHit  bool
	resultCacheSeen bool
}

// New returns an enabled trace whose clock starts now.
func New() *Trace {
	t := &Trace{epoch: time.Now()}
	t.spans = t.slab[:0]
	return t
}

// Begin opens a span under parent (NoSpan for a root-level span) and
// returns its id. On a nil Trace it returns NoSpan without allocating.
func (t *Trace) Begin(parent SpanID, name string) SpanID {
	if t == nil {
		return NoSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1, rows: -1})
	t.mu.Unlock()
	return id
}

// End closes the span. Closing NoSpan (or any id on a nil Trace) is a
// no-op, so Begin/End pairs need no disabled-path branching.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].end = now
	}
	t.mu.Unlock()
}

// SetRows marks the span as an operator span that produced n rows.
func (t *Trace) SetRows(id SpanID, n int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].rows = n
	}
	t.mu.Unlock()
}

// AddBatch counts one batch emitted by a pull-executor operator span.
func (t *Trace) AddBatch(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].batches++
	}
	t.mu.Unlock()
}

// SetWorkers records the worker budget active inside the span.
func (t *Trace) SetWorkers(id SpanID, n int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].workers = n
	}
	t.mu.Unlock()
}

// Outcomes SetIndex records for a GraphMatch span served by a cached
// graph index: the index was current, absorbed appended rows into its
// delta, or rebuilt its snapshot because the delta outgrew it.
const (
	IndexHit     = "hit"
	IndexRefresh = "refresh"
	IndexRebuild = "rebuild"
)

// SetIndex records how a GraphMatch span's cached graph index served
// it (IndexHit, IndexRefresh or IndexRebuild).
func (t *Trace) SetIndex(id SpanID, outcome string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].index = outcome
	}
	t.mu.Unlock()
}

// SetGraphBuilt records the size of the throwaway graph a GraphMatch
// span built because no index served it.
func (t *Trace) SetGraphBuilt(id SpanID, vertices, edges int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].graphVertices, t.spans[id].graphEdges = vertices, edges
	}
	t.mu.Unlock()
}

// SetDict records the form ("dense" or "hash") of the vertex
// dictionary of the graph a GraphMatch span built, ad hoc or by an
// index rebuild.
func (t *Trace) SetDict(id SpanID, form string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].dict = form
	}
	t.mu.Unlock()
}

// SetWindows records that a scan read scanned of the total windows of
// its table, skipping the rest by their zones.
func (t *Trace) SetWindows(id SpanID, scanned, total int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].windowsScanned, t.spans[id].windowsTotal = scanned, total
	}
	t.mu.Unlock()
}

// AddSolve hands a solver span what one solve did, in one call made
// after its workers finish: the frontier samples of its searches, and
// how many destinations it searched from both ends and forward. A span
// that runs several solves accumulates them.
func (t *Trace) AddSolve(id SpanID, levels []Level, searches Searches) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		sp := &t.spans[id]
		sp.levels = append(sp.levels, levels...)
		sp.searches.Both += searches.Both
		sp.searches.Forward += searches.Forward
	}
	t.mu.Unlock()
}

// Duration reports the recorded wall time of a closed span, or the
// elapsed-so-far of an open one. Zero on a nil Trace.
func (t *Trace) Duration(id SpanID) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return 0
	}
	s := t.spans[id]
	if s.end < 0 {
		return now - s.start
	}
	return s.end - s.start
}

// CurrentStage names the most recently opened still-open span — what
// the query is doing right now. Empty when idle or on a nil Trace.
func (t *Trace) CurrentStage() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].end < 0 {
			return t.spans[i].name
		}
	}
	return ""
}

// SetPlanCacheHit records whether the session plan cache served this
// query's plan; read back by the query log.
func (t *Trace) SetPlanCacheHit(hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.planCacheHit, t.planCacheKnown = hit, true
	t.mu.Unlock()
}

// PlanCacheHit reports the recorded plan-cache outcome; known is false
// when the query never reached plan resolution (or the trace is nil).
func (t *Trace) PlanCacheHit() (hit, known bool) {
	if t == nil {
		return false, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.planCacheHit, t.planCacheKnown
}

// SetResultCacheHit records the server result-cache outcome (the
// lookup happened; hit says whether it was served from memory).
func (t *Trace) SetResultCacheHit(hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.resultCacheHit, t.resultCacheSeen = hit, true
	t.mu.Unlock()
}

// ResultCacheHit reports the recorded result-cache outcome; seen is
// false when no cache lookup happened (or the trace is nil).
func (t *Trace) ResultCacheHit() (hit, seen bool) {
	if t == nil {
		return false, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resultCacheHit, t.resultCacheSeen
}

// Stage is one top-level span in flat form: the query log and the
// per-stage latency histograms consume this view instead of the tree.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Stages reports the root-level spans (parent NoSpan) in creation
// order; open spans report elapsed-so-far. Nil on a nil Trace.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Stage
	for _, s := range t.spans {
		if s.parent != NoSpan {
			continue
		}
		e := s.end
		if e < 0 {
			e = now
		}
		out = append(out, Stage{Name: s.name, Dur: e - s.start})
	}
	return out
}

// Level is one frontier sample of a solver span in wire form. Backward
// marks a level of the backward half of a bidirectional search, counted
// from the destination; it is omitted for forward levels, so a
// forward-only trace encodes as it did before searches had a direction.
type Level struct {
	Level    int64 `json:"level"`
	Size     int   `json:"size"`
	Backward bool  `json:"backward,omitempty"`
}

// Searches counts the destinations a solver span searched from both
// ends (a bidirectional BFS per destination) and forward (one
// traversal from the source serving all of a group's destinations).
type Searches struct {
	Both    int `json:"both"`
	Forward int `json:"forward"`
}

// Node is the wire form of a span subtree: what a traced /query
// response carries (buffered body or stream trailer) and what EXPLAIN
// ANALYZE renders. Field order is the deterministic JSON encoding
// order. Rows/RowsIn are pointers so non-operator spans omit them
// rather than reporting a spurious zero.
type Node struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Rows    *int64 `json:"rows,omitempty"`
	RowsIn  *int64 `json:"rows_in,omitempty"`
	Batches int64  `json:"batches,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// Index, GraphVertices, GraphEdges and Dict are GraphMatch
	// attributes: how a cached graph index served the operator
	// (IndexHit, IndexRefresh, IndexRebuild), the size of the graph it
	// built without one, and the form of the dictionary ("dense" or
	// "hash") of a graph it built, ad hoc or by an index rebuild.
	Index         string `json:"index,omitempty"`
	GraphVertices int    `json:"graph_vertices,omitempty"`
	GraphEdges    int    `json:"graph_edges,omitempty"`
	Dict          string `json:"dict,omitempty"`
	// Windows is set on a scan that skipped some of its table's
	// windows by their zones.
	Windows *Windows `json:"windows,omitempty"`
	// Searches is set on a GraphMatch span whose solver searched.
	Searches *Searches `json:"searches,omitempty"`
	Levels   []Level   `json:"levels,omitempty"`
	Children []*Node   `json:"children,omitempty"`
}

// Windows is how many of its table's windows (storage.ZoneRows rows
// each, the last one possibly partial) a scan read.
type Windows struct {
	Scanned int `json:"scanned"`
	Total   int `json:"total"`
}

// Tree snapshots the spans as a tree under a synthetic root named
// "query" spanning the whole trace. Open spans are reported as if they
// ended now. Nil on a nil Trace.
func (t *Trace) Tree() *Node {
	if t == nil {
		return nil
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	spans := make([]span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	root := &Node{Name: "query"}
	nodes := make([]*Node, len(spans))
	var end time.Duration
	for i, s := range spans {
		e := s.end
		if e < 0 {
			e = now
		}
		if e > end {
			end = e
		}
		n := &Node{
			Name:          s.name,
			StartUS:       s.start.Microseconds(),
			DurUS:         (e - s.start).Microseconds(),
			Batches:       s.batches,
			Workers:       s.workers,
			Index:         s.index,
			GraphVertices: s.graphVertices,
			GraphEdges:    s.graphEdges,
			Dict:          s.dict,
		}
		if s.rows >= 0 {
			rows := s.rows
			n.Rows = &rows
		}
		if s.windowsTotal > 0 {
			n.Windows = &Windows{Scanned: s.windowsScanned, Total: s.windowsTotal}
		}
		if s.searches != (Searches{}) {
			searches := s.searches
			n.Searches = &searches
		}
		if len(s.levels) > 0 {
			n.Levels = slices.Clone(s.levels)
		}
		nodes[i] = n
		if s.parent >= 0 && int(s.parent) < len(nodes) && nodes[s.parent] != nil {
			nodes[s.parent].Children = append(nodes[s.parent].Children, n)
		} else {
			root.Children = append(root.Children, n)
		}
	}
	root.DurUS = end.Microseconds()
	fillRowsIn(root)
	return root
}

// fillRowsIn derives each operator span's input row count as the sum of
// its operator children's outputs (a leaf scan has no input).
func fillRowsIn(n *Node) {
	var in int64
	seen := false
	for _, c := range n.Children {
		fillRowsIn(c)
		if c.Rows != nil {
			in += *c.Rows
			seen = true
		}
	}
	if n.Rows != nil && seen {
		n.RowsIn = &in
	}
}

// Render pretty-prints a span tree as the indented text block EXPLAIN
// ANALYZE and gsql -trace show: one line per span with actual rows and
// wall time, frontier samples as sub-lines of solver spans.
func Render(root *Node) string {
	if root == nil {
		return ""
	}
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Name)
		b.WriteString(" (")
		if n.Rows != nil {
			fmt.Fprintf(&b, "rows=%d, ", *n.Rows)
		}
		if n.RowsIn != nil {
			fmt.Fprintf(&b, "rows_in=%d, ", *n.RowsIn)
		}
		fmt.Fprintf(&b, "time=%s", durString(n.DurUS))
		if n.Index != "" {
			fmt.Fprintf(&b, ", index=%s", n.Index)
		}
		if n.GraphVertices > 0 || n.GraphEdges > 0 {
			fmt.Fprintf(&b, ", graph_vertices=%d, graph_edges=%d", n.GraphVertices, n.GraphEdges)
		}
		if n.Dict != "" {
			fmt.Fprintf(&b, ", dict=%s", n.Dict)
		}
		if n.Windows != nil {
			fmt.Fprintf(&b, ", windows=%d/%d", n.Windows.Scanned, n.Windows.Total)
		}
		if n.Searches != nil {
			fmt.Fprintf(&b, ", searches=both:%d,forward:%d", n.Searches.Both, n.Searches.Forward)
		}
		if n.Workers > 0 {
			fmt.Fprintf(&b, ", workers=%d", n.Workers)
		}
		b.WriteString(")\n")
		for _, l := range n.Levels {
			b.WriteString(strings.Repeat("  ", depth+1))
			dir := ""
			if l.Backward {
				dir = " (backward)"
			}
			fmt.Fprintf(&b, "level %d%s: frontier=%d\n", l.Level, dir, l.Size)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

func durString(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).String()
}
