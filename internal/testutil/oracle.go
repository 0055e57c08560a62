package testutil

// An independent shortest-path oracle for SQL-level tests. It shares no
// code with internal/graph on purpose: no dictionary, no CSR, no
// solver, just maps and the two textbook algorithms, so a bug in the
// engine's traversal cannot also be a bug here. Only suitable for tiny
// graphs (Floyd–Warshall is cubic).

// OracleEdge is one directed edge carrying both weight flavours the
// paper's Fig 1a uses; weights must be strictly positive.
type OracleEdge struct {
	Src, Dst int64
	W        int64
	F        float64
}

// oracleVertices returns the vertex set of the graph the edges span:
// exactly the ids that occur as an endpoint. A key that is no endpoint
// is not a vertex and reaches nothing, not even itself.
func oracleVertices(edges []OracleEdge) []int64 {
	seen := map[int64]bool{}
	var vs []int64
	for _, e := range edges {
		for _, v := range [2]int64{e.Src, e.Dst} {
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// OracleBFS returns the hop count from src to every vertex it reaches
// (src itself at 0 hops), by breadth-first search over an adjacency
// map. The result is empty when src is not a vertex of the graph.
func OracleBFS(edges []OracleEdge, src int64) map[int64]int {
	adj := map[int64][]int64{}
	isVertex := false
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		if e.Src == src || e.Dst == src {
			isVertex = true
		}
	}
	hops := map[int64]int{}
	if !isVertex {
		return hops
	}
	hops[src] = 0
	for frontier := []int64{src}; len(frontier) > 0; {
		var next []int64
		for _, u := range frontier {
			for _, v := range adj[u] {
				if _, seen := hops[v]; !seen {
					hops[v] = hops[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return hops
}

// OracleFloydWarshall returns the cheapest cost between every ordered
// pair of connected vertices under the given edge weight (a vertex
// reaches itself at cost 0); unreachable pairs are absent.
func OracleFloydWarshall(edges []OracleEdge, weight func(OracleEdge) float64) map[[2]int64]float64 {
	dist := map[[2]int64]float64{}
	relax := func(u, v int64, d float64) {
		if old, ok := dist[[2]int64{u, v}]; !ok || d < old {
			dist[[2]int64{u, v}] = d
		}
	}
	vs := oracleVertices(edges)
	for _, e := range edges {
		relax(e.Src, e.Dst, weight(e))
	}
	for _, v := range vs {
		relax(v, v, 0)
	}
	for _, k := range vs {
		for _, i := range vs {
			ik, ok := dist[[2]int64{i, k}]
			if !ok {
				continue
			}
			for _, j := range vs {
				if kj, ok := dist[[2]int64{k, j}]; ok {
					relax(i, j, ik+kj)
				}
			}
		}
	}
	return dist
}
