package main

// Span arithmetic over the trees gsqld returns for "trace": true, and
// the benchmark's own span recorder, which brackets the in-process
// layer calls and keeps the traced requests for benchmark/out.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// child returns the first direct child with the given name, or nil.
func (n *spanNode) child(name string) *spanNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// selfUS is the span's duration minus the part of its interval that its
// children cover; overlapping children are counted once.
func (n *spanNode) selfUS() int64 {
	type iv struct{ lo, hi int64 }
	lo, hi := n.StartUS, n.StartUS+n.DurUS
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		a, b := max(c.StartUS, lo), min(c.StartUS+c.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return n.DurUS - covered
}

// operatorKinds are the operator families whose self time is reported,
// keyed by the first word of the span name the executor gives them.
var operatorKinds = map[string]string{
	"scan": "scan", "chunkscan": "scan", "filter": "filter", "project": "project",
	"sort": "sort", "limit": "limit", "graphmatch": "graphmatch",
}

// treeFold is what one span tree contributes to the span metrics.
type treeFold struct {
	totalUS  float64
	stageUS  map[string]float64 // root children by name
	opSelfUS map[string]float64 // operator self time by kind
	batches  float64            // batches emitted by the root operator
	spans    float64
	levels   float64 // BFS frontier samples
	peak     float64 // largest frontier
}

func foldTree(root *spanNode) treeFold {
	f := treeFold{
		totalUS:  float64(root.DurUS),
		stageUS:  map[string]float64{},
		opSelfUS: map[string]float64{},
	}
	for _, c := range root.Children {
		f.stageUS[c.Name] += float64(c.DurUS)
	}
	if ex := root.child("execute"); ex != nil && len(ex.Children) > 0 {
		f.batches = float64(ex.Children[0].Batches)
	}
	var walk func(n *spanNode, operator bool)
	walk = func(n *spanNode, operator bool) {
		f.spans++
		if operator {
			word, _, _ := strings.Cut(n.Name, " ")
			if kind, ok := operatorKinds[strings.ToLower(word)]; ok {
				f.opSelfUS[kind] += float64(n.selfUS())
			}
		}
		f.levels += float64(len(n.Levels))
		for _, l := range n.Levels {
			f.peak = max(f.peak, float64(l.Size))
		}
		for _, c := range n.Children {
			walk(c, operator || n.Name == "execute")
		}
	}
	for _, c := range root.Children {
		walk(c, false)
	}
	return f
}

// spanRecord is one span of the benchmark's own recorder.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`  // -1 for a root
	Request int    `json:"request"` // spans of one request share it; 0 = none
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Calls   int    `json:"calls,omitempty"` // calls a harness span brackets
}

// recorder keeps spans in memory until write.
type recorder struct {
	epoch time.Time
	spans []spanRecord
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(parent, request int, name string) int {
	id := len(r.spans)
	r.spans = append(r.spans, spanRecord{
		ID: id, Parent: parent, Request: request, Name: name,
		StartUS: time.Since(r.epoch).Microseconds(), EndUS: -1,
	})
	return id
}

func (r *recorder) end(id, calls int) {
	r.spans[id].EndUS = time.Since(r.epoch).Microseconds()
	r.spans[id].Calls = calls
}

// graft records one traced request: a client span covering the measured
// latency and, under it, the server's tree. The server's clock origin
// is unknown to the client, so the tree is centred in the client span
// (the HTTP overhead is assumed to split evenly between the two legs).
func (r *recorder) graft(request int, start, latency time.Duration, tree *spanNode) {
	s := start.Microseconds()
	root := len(r.spans)
	r.spans = append(r.spans, spanRecord{
		ID: root, Parent: -1, Request: request, Name: "client POST /query",
		StartUS: s, EndUS: s + latency.Microseconds(),
	})
	base := s + max(0, latency.Microseconds()-tree.DurUS)/2
	var walk func(n *spanNode, parent int)
	walk = func(n *spanNode, parent int) {
		id := len(r.spans)
		r.spans = append(r.spans, spanRecord{
			ID: id, Parent: parent, Request: request, Name: n.Name,
			StartUS: base + n.StartUS, EndUS: base + n.StartUS + n.DurUS,
		})
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	walk(tree, root)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
