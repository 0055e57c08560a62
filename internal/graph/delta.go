package graph

// Delta holds edges appended after a CSR snapshot was built, keyed by
// source vertex. It answers the paper's §6 concern that graph indices
// "need to be amenable to the updates on the underlying tables,
// challenging the currently adopted runtime CSR representation": the
// CSR stays immutable, appended edges live here, and traversals visit
// both. When the delta grows past a threshold the owner rebuilds the
// snapshot (see core.DynamicGraph). Every edge is kept both ways, so a
// bidirectional search over the snapshot's transpose (CSR.In) sees the
// appended edges from both ends too.
type Delta struct {
	// N is the total vertex count including vertices that only appear
	// in delta edges (the CSR knows ids < CSR.N only).
	N int
	// Adj maps a source vertex to its appended out-edges.
	Adj map[VertexID][]DeltaEdge
	// In maps a destination vertex to its appended in-edges; there To
	// is the edge's source, the vertex a backward search moves to.
	In map[VertexID][]DeltaEdge
	// Edges counts the appended edges.
	Edges int
}

// DeltaEdge is one appended edge: the endpoint it leads to and its
// edge-table row (for weights and path reconstruction).
type DeltaEdge struct {
	To  VertexID
	Row int32
}

// NewDelta returns an empty delta over a snapshot with n vertices.
func NewDelta(n int) *Delta {
	return &Delta{N: n, Adj: make(map[VertexID][]DeltaEdge), In: make(map[VertexID][]DeltaEdge)}
}

// Add appends one edge. Vertex ids beyond the current N grow it.
func (d *Delta) Add(src, dst VertexID, row int32) {
	d.Adj[src] = append(d.Adj[src], DeltaEdge{To: dst, Row: row})
	d.In[dst] = append(d.In[dst], DeltaEdge{To: src, Row: row})
	if int(src) >= d.N {
		d.N = int(src) + 1
	}
	if int(dst) >= d.N {
		d.N = int(dst) + 1
	}
	d.Edges++
}
