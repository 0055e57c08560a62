// Package core implements the paper's primary contribution at the
// physical level: the execution of the graph select / graph join
// operator (GraphMatch). Following §3.1-§3.3, it materializes the edge
// table, dictionary-encodes all vertex keys into the dense domain H,
// builds a CSR representation, invokes the shortest-path runtime for
// the batch of ⟨source, destination⟩ pairs, and materializes the
// result set back, appending CHEAPEST SUM cost and nested-table path
// columns.
package core

import (
	"context"
	"fmt"

	"graphsql/internal/expr"
	"graphsql/internal/graph"
	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
	"graphsql/internal/types"
)

// PreparedGraph is a reusable compiled graph: the vertex dictionary,
// the CSR and the (compacted) edge chunk it references. Building it is
// the dominant cost of a shortest-path query (§4); caching it across
// queries is the 'graph index' of the paper's future work (§6),
// exposed through the facade's BuildGraphIndex.
type PreparedGraph struct {
	// Dict maps vertex keys to H = {0..N-1}.
	Dict *graph.Dict
	// CSR is the adjacency structure.
	CSR *graph.CSR
	// Edges is the materialized edge chunk the CSR indexes; rows with
	// NULL endpoints were removed.
	Edges *storage.Chunk
	// SrcIdx and DstIdx locate the key columns inside Edges.
	SrcIdx, DstIdx int
	// KeyKind is the shared type of the vertex keys.
	KeyKind types.Kind
	// Parallelism is the worker budget for solving over this graph
	// (and for rebuilding it); <= 0 means one worker per CPU.
	Parallelism int
	// edgesOwned reports whether Edges is a private copy (true after
	// NULL compaction or the first dynamic-index append) rather than
	// an alias of the base table columns.
	edgesOwned bool
}

// stringKeyed reports whether vertex keys use the string key space.
func stringKeyed(k types.Kind) bool { return k == types.KindString }

// BuildGraphCtx compiles an edge chunk into a PreparedGraph. The source
// and destination columns must share one comparable scalar kind.
// Dictionary encoding and CSR construction run chunked over up to
// parallelism workers (<= 0 means one per CPU, size-gated), and solvers
// over the resulting graph inherit the same budget; the graph is
// bit-identical to a sequential build at any setting. The context is
// threaded through the dictionary-encode and CSR chunk loops: a cancel
// landing during ad-hoc graph construction aborts the build within a
// few thousand rows instead of finishing it. A nil ctx never cancels.
// The graph carries no transpose: one query's traversals cannot pay
// back an O(E) transpose build, so they all search forward.
func BuildGraphCtx(ctx context.Context, edges *storage.Chunk, srcIdx, dstIdx, parallelism int) (*PreparedGraph, error) {
	return buildGraph(ctx, edges, srcIdx, dstIdx, parallelism, false)
}

// buildGraph is BuildGraphCtx, optionally also building the CSR's
// transpose (graph indices, whose many single-pair queries search from
// both ends). The transpose build runs the CSR core under the same ctx
// polling and fault points.
func buildGraph(ctx context.Context, edges *storage.Chunk, srcIdx, dstIdx, parallelism int, transpose bool) (*PreparedGraph, error) {
	if srcIdx < 0 || srcIdx >= len(edges.Cols) || dstIdx < 0 || dstIdx >= len(edges.Cols) {
		return nil, fmt.Errorf("graph build: edge column index out of range")
	}
	sc, dc := edges.Cols[srcIdx], edges.Cols[dstIdx]
	if sc.Kind != dc.Kind {
		return nil, fmt.Errorf("graph build: source kind %v differs from destination kind %v", sc.Kind, dc.Kind)
	}
	if sc.Kind == types.KindPath {
		return nil, fmt.Errorf("graph build: nested tables cannot be vertex keys")
	}
	// Rows with NULL endpoints do not define edges; compact them away
	// so CSR positions align with chunk rows.
	owned := false
	if sc.HasNulls() || dc.HasNulls() {
		keep := make([]int, 0, edges.NumRows())
		for i := 0; i < edges.NumRows(); i++ {
			if !sc.IsNull(i) && !dc.IsNull(i) {
				keep = append(keep, i)
			}
		}
		edges = edges.Gather(keep, 1)
		sc, dc = edges.Cols[srcIdx], edges.Cols[dstIdx]
		owned = true
	}
	m := edges.NumRows()
	var dict *graph.Dict
	srcIDs := make([]graph.VertexID, m)
	dstIDs := make([]graph.VertexID, m)
	ids := [][]graph.VertexID{srcIDs, dstIDs}
	var err error
	// The dictionary starts empty and grows with the distinct keys: a
	// capacity hint of m edge rows would allocate a map sized by edges,
	// not vertices.
	if stringKeyed(sc.Kind) {
		dict = graph.NewStringDict(0)
		err = dict.EncodeColumnsStringCtx(ctx, [][]string{sc.Strs, dc.Strs}, ids, parallelism)
	} else {
		dict = graph.NewIntDict(0)
		err = dict.EncodeColumnsIntCtx(ctx, [][]int64{sc.Ints, dc.Ints}, ids, parallelism)
	}
	if err != nil {
		return nil, err
	}
	csr, err := graph.BuildCSRParallelCtx(ctx, dict.Len(), srcIDs, dstIDs, parallelism)
	if err != nil {
		return nil, err
	}
	if transpose {
		if csr.In, err = graph.BuildTransposeCtx(ctx, dict.Len(), srcIDs, dstIDs, parallelism); err != nil {
			return nil, err
		}
	}
	return &PreparedGraph{
		Dict: dict, CSR: csr, Edges: edges,
		SrcIdx: srcIdx, DstIdx: dstIdx, KeyKind: sc.Kind,
		Parallelism: parallelism,
		edgesOwned:  owned,
	}, nil
}

// NumVertices returns |V|.
func (pg *PreparedGraph) NumVertices() int { return pg.Dict.Len() }

// NumEdges returns |E| (after NULL compaction).
func (pg *PreparedGraph) NumEdges() int { return pg.CSR.NumEdges() }

// encodeColumn maps a column of vertex keys onto dense ids; values
// that are NULL or not vertices map to NoVertex (they fail the
// reachability predicate, §3.1's "initial filtering").
func (pg *PreparedGraph) encodeColumn(c *storage.Column) []graph.VertexID {
	n := c.Len()
	out := make([]graph.VertexID, n)
	if stringKeyed(pg.KeyKind) {
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				out[i] = graph.NoVertex
				continue
			}
			out[i] = pg.Dict.LookupString(c.Strs[i])
		}
		return out
	}
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			out[i] = graph.NoVertex
			continue
		}
		out[i] = pg.Dict.LookupInt(c.Ints[i])
	}
	return out
}

// MatchCtx executes a GraphMatch over a prepared graph: it filters the
// input rows by the reachability predicate and appends one cost (and
// optional path) column per CheapestSpec. X and Y are the evaluated
// key columns of the input chunk. The context is checked at the
// solver's source-group boundaries and before output materialization.
func (pg *PreparedGraph) MatchCtx(stdctx context.Context, gm *plan.GraphMatch, input *storage.Chunk, xCol, yCol *storage.Column, ctx *expr.Context) (*storage.Chunk, error) {
	return pg.match(stdctx, gm, input, xCol, yCol, ctx, nil)
}

// match is MatchCtx with an optional delta of appended edges (dynamic
// graph index, §6).
func (pg *PreparedGraph) match(stdctx context.Context, gm *plan.GraphMatch, input *storage.Chunk, xCol, yCol *storage.Column, ctx *expr.Context, delta *graph.Delta) (*storage.Chunk, error) {
	srcs := pg.encodeColumn(xCol)
	dsts := pg.encodeColumn(yCol)

	// Materialize the weights of each CHEAPEST SUM over the edge chunk
	// (§2: "its result is computed before executing CHEAPEST SUM").
	specs := make([]graph.Spec, len(gm.Specs))
	for k := range gm.Specs {
		sp := &gm.Specs[k]
		gs := graph.Spec{
			NeedPath: sp.WantPath,
			Float:    sp.CostKind == types.KindFloat,
		}
		if cv, ok := expr.IsConst(sp.Weight, ctx); ok && !cv.Null {
			gs.Unit = true
			if gs.Float {
				gs.UnitF = cv.AsFloat()
			} else {
				gs.UnitI = cv.I
			}
		} else {
			wc, err := sp.Weight.Eval(ctx, pg.Edges)
			if err != nil {
				return nil, err
			}
			if wc.HasNulls() {
				return nil, fmt.Errorf("CHEAPEST SUM: weight expression %s produced NULL", sp.Weight)
			}
			if gs.Float {
				if wc.Kind == types.KindFloat {
					gs.WeightsF = wc.Floats
				} else {
					fs := make([]float64, wc.Len())
					for i := range fs {
						fs[i] = float64(wc.Ints[i])
					}
					gs.WeightsF = fs
				}
			} else {
				gs.WeightsI = wc.Ints
			}
		}
		if err := graph.ValidateWeights(&gs); err != nil {
			return nil, err
		}
		specs[k] = gs
	}

	solver := graph.NewSolverWithDelta(pg.CSR, delta)
	solver.Parallelism = pg.Parallelism
	solver.Ctx = stdctx
	if stdctx != nil {
		// A traced query carries its trace (and the GraphMatch span) in
		// the context; report each BFS level's frontier size into it.
		if tr, span, ok := trace.FromContext(stdctx); ok {
			solver.OnLevel = func(level int64, size int, backward bool) {
				tr.AddLevel(span, level, size, backward)
			}
		}
	}
	sol, err := solver.Solve(srcs, dsts, specs)
	if err != nil {
		return nil, err
	}
	if stdctx != nil {
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
	}

	// Materialize the surviving rows plus the generated columns. The
	// output phase (row gather, cost columns, nested-table paths) is
	// partitioned over the solver's worker budget: every worker fills a
	// disjoint slice range, so the result is bit-identical to the
	// sequential loop at any worker count.
	keep := make([]int, 0, len(sol.Reached))
	for i, r := range sol.Reached {
		if r {
			keep = append(keep, i)
		}
	}
	workers := par.Gated(pg.Parallelism, len(keep), minParallelOutputRows)
	out := input.Gather(keep, workers)
	out.Schema = gm.Sch[:len(input.Schema)]
	for k := range gm.Specs {
		sp := &gm.Specs[k]
		var costCol *storage.Column
		if sp.CostKind == types.KindFloat {
			fs := make([]float64, len(keep))
			par.Ranges(workers, len(keep), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					fs[i] = sol.CostF[k][keep[i]]
				}
			})
			costCol = storage.ColumnFromFloats(fs)
		} else {
			is := make([]int64, len(keep))
			par.Ranges(workers, len(keep), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					is[i] = sol.CostI[k][keep[i]]
				}
			})
			costCol = storage.ColumnFromInts(sp.CostKind, is)
		}
		out.Cols = append(out.Cols, costCol)
		if sp.WantPath {
			names, kinds := pg.pathSchema()
			ps := make([]*types.Path, len(keep))
			// Paths vary wildly in length; steal items instead of
			// splitting ranges so one long-path region cannot
			// serialize the phase.
			par.Indexed(workers, len(keep), func(_, i int) {
				ps[i] = pg.buildPath(names, kinds, sol.Paths[k][keep[i]])
			})
			out.Cols = append(out.Cols, storage.ColumnFromPaths(ps))
		}
	}
	out.Schema = gm.Sch
	return out, nil
}

// minParallelOutputRows gates the parallel output phase of GraphMatch:
// below it, materialization stays on the calling goroutine (see
// par.Gated).
const minParallelOutputRows = 1 << 12

// pathSchema derives the nested-table column names/kinds from the edge
// chunk (§2: "the attributes enclosed in the nested table ... are the
// same as the attributes of the EDGE table expression").
func (pg *PreparedGraph) pathSchema() ([]string, []types.Kind) {
	names := make([]string, len(pg.Edges.Schema))
	kinds := make([]types.Kind, len(pg.Edges.Schema))
	for i, m := range pg.Edges.Schema {
		names[i] = m.Name
		kinds[i] = m.Kind
	}
	return names, kinds
}

// buildPath materializes a nested-table value from edge-row references.
func (pg *PreparedGraph) buildPath(names []string, kinds []types.Kind, rows []int32) *types.Path {
	p := &types.Path{Cols: names, Kinds: kinds}
	if len(rows) == 0 {
		return p
	}
	p.Rows = make([][]types.Value, len(rows))
	for i, r := range rows {
		p.Rows[i] = pg.Edges.Row(int(r))
	}
	return p
}
