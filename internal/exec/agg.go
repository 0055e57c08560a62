package exec

import (
	"fmt"

	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	min, max types.Value
	seen     bool
	distinct map[string]struct{}
}

// newAggStates allocates the per-group state row for the given specs.
func newAggStates(aggs []plan.AggSpec) []aggState {
	st := make([]aggState, len(aggs))
	for i := range aggs {
		if aggs[i].Distinct {
			st[i].distinct = make(map[string]struct{})
		}
	}
	return st
}

// accumRow folds input row `row` into the state row st. This is the
// single accumulation routine shared by both grouping paths, so their
// per-group state transitions are identical.
func accumRow(aggs []plan.AggSpec, st []aggState, argCols []*storage.Column, row int) {
	for i := range aggs {
		spec := &aggs[i]
		if spec.Op == plan.AggCountStar {
			st[i].count++
			continue
		}
		c := argCols[i]
		if c.IsNull(row) {
			continue // aggregates skip NULL inputs
		}
		if spec.Distinct {
			var kb []byte
			kb = encodeKey(kb, c, row)
			if _, dup := st[i].distinct[string(kb)]; dup {
				continue
			}
			st[i].distinct[string(kb)] = struct{}{}
		}
		v := c.Get(row)
		st[i].count++
		switch spec.Op {
		case plan.AggSum, plan.AggAvg:
			if c.Kind == types.KindFloat {
				st[i].sumF += v.F
			} else {
				st[i].sumI += v.I
				st[i].sumF += float64(v.I)
			}
		case plan.AggMin:
			if !st[i].seen || types.Compare(v, st[i].min) < 0 {
				st[i].min = v
			}
		case plan.AggMax:
			if !st[i].seen || types.Compare(v, st[i].max) > 0 {
				st[i].max = v
			}
		}
		st[i].seen = true
	}
}

// aggregateCore groups and aggregates one materialized input chunk.
func aggregateCore(a *plan.Aggregate, in *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	n := in.NumRows()

	// Evaluate group-by keys and aggregate arguments column-at-a-time.
	groupCols := make([]*storage.Column, len(a.GroupBy))
	for i, g := range a.GroupBy {
		c, err := g.Eval(ctx.Expr, in)
		if err != nil {
			return nil, err
		}
		groupCols[i] = c
	}
	argCols := make([]*storage.Column, len(a.Aggs))
	for i := range a.Aggs {
		if a.Aggs[i].Arg == nil {
			continue
		}
		c, err := a.Aggs[i].Arg.Eval(ctx.Expr, in)
		if err != nil {
			return nil, err
		}
		argCols[i] = c
	}

	// groupRows holds one representative row per group. Partial states
	// that cannot merge exactly fold per group instead; a global
	// aggregate is one group, so it folds in one partition.
	var groupRows []int
	var states [][]aggState
	workers := ctx.workers(n)
	switch {
	case workers <= 1 || aggMergeSafe(a.Aggs):
		groupRows, states = aggPartitioned(a.Aggs, groupCols, argCols, n, workers)
	case len(a.GroupBy) == 0:
		groupRows, states = aggPartitioned(a.Aggs, groupCols, argCols, n, 1)
	default:
		groupRows, states = aggPerGroup(a.Aggs, groupCols, argCols, n, workers)
	}

	// A global aggregate (no GROUP BY) over zero rows still yields one
	// row: COUNT = 0, other aggregates NULL.
	if len(groupRows) == 0 && len(a.GroupBy) == 0 {
		groupRows = append(groupRows, -1)
		states = append(states, make([]aggState, len(a.Aggs)))
	}

	out := storage.NewChunk(a.Sch)
	for gid, rep := range groupRows {
		row := make([]types.Value, 0, len(a.Sch))
		for _, gc := range groupCols {
			row = append(row, gc.Get(rep))
		}
		for i := range a.Aggs {
			spec := &a.Aggs[i]
			st := &states[gid][i]
			switch spec.Op {
			case plan.AggCountStar, plan.AggCount:
				row = append(row, types.NewInt(st.count))
			case plan.AggSum:
				if st.count == 0 {
					row = append(row, types.NewNull(spec.Kind))
				} else if spec.Kind == types.KindFloat {
					row = append(row, types.NewFloat(st.sumF))
				} else {
					row = append(row, types.NewInt(st.sumI))
				}
			case plan.AggAvg:
				if st.count == 0 {
					row = append(row, types.NewNull(types.KindFloat))
				} else {
					row = append(row, types.NewFloat(st.sumF/float64(st.count)))
				}
			case plan.AggMin:
				if !st.seen {
					row = append(row, types.NewNull(spec.Kind))
				} else {
					row = append(row, st.min)
				}
			case plan.AggMax:
				if !st.seen {
					row = append(row, types.NewNull(spec.Kind))
				} else {
					row = append(row, st.max)
				}
			default:
				return nil, fmt.Errorf("internal: unknown aggregate %v", spec.Op)
			}
		}
		out.AppendRow(row)
	}
	return out, nil
}

// aggMergeSafe reports whether every aggregate's partial states can be
// merged across row partitions without changing the result bit for
// bit: COUNT and integer SUM are associative, MIN/MAX keep the
// earliest value among Compare-equal candidates when partitions merge
// in row order. Float SUM/AVG are excluded (float addition is not
// associative, so partial sums would diverge from the sequential
// accumulation order in the last bits), as are DISTINCT aggregates
// (their accumulation order determines which representative is kept).
func aggMergeSafe(aggs []plan.AggSpec) bool {
	for i := range aggs {
		if aggs[i].Distinct {
			return false
		}
		switch aggs[i].Op {
		case plan.AggCountStar, plan.AggCount, plan.AggMin, plan.AggMax:
		case plan.AggSum:
			if aggs[i].Kind == types.KindFloat {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// localAgg is one row partition's private aggregation result: groups
// in first-appearance order within the partition.
type localAgg struct {
	reps   []int
	states [][]aggState
}

// aggPartitioned is partitioned pre-aggregation: contiguous row
// partitions aggregate privately (no shared state, no per-row key
// allocation on group hits), then the partials merge sequentially in
// partition order, each re-keyed from its representative row. Because
// partitions are contiguous and merged in order, global group numbering
// is by first appearance and merge-safe states merge exactly. One
// partition is the sequential grouping loop itself and needs no merge,
// so any aggregate set may run there.
func aggPartitioned(aggs []plan.AggSpec, groupCols, argCols []*storage.Column, n, workers int) ([]int, [][]aggState) {
	locals := make([]localAgg, par.NumRanges(workers, n))
	par.Ranges(workers, n, func(w, lo, hi int) {
		groups := make(map[string]int, 64)
		var local localAgg
		var buf []byte
		for row := lo; row < hi; row++ {
			buf = appendRowKey(buf[:0], groupCols, row)
			gid, ok := groups[string(buf)]
			if !ok {
				gid = len(local.reps)
				groups[string(buf)] = gid
				local.reps = append(local.reps, row)
				local.states = append(local.states, newAggStates(aggs))
			}
			accumRow(aggs, local.states[gid], argCols, row)
		}
		locals[w] = local
	})
	if len(locals) == 1 {
		return locals[0].reps, locals[0].states
	}
	groups := make(map[string]int, 64)
	var groupRows []int
	var states [][]aggState
	var buf []byte
	for _, local := range locals {
		for li, rep := range local.reps {
			buf = appendRowKey(buf[:0], groupCols, rep)
			gid, ok := groups[string(buf)]
			if !ok {
				groups[string(buf)] = len(groupRows)
				groupRows = append(groupRows, rep)
				states = append(states, local.states[li])
				continue
			}
			mergeAggStates(aggs, states[gid], local.states[li])
		}
	}
	return groupRows, states
}

// mergeAggStates folds the later partition's state src into dst; only
// called for merge-safe aggregate sets (see aggMergeSafe).
func mergeAggStates(aggs []plan.AggSpec, dst, src []aggState) {
	for i := range aggs {
		dst[i].count += src[i].count
		switch aggs[i].Op {
		case plan.AggSum:
			dst[i].sumI += src[i].sumI
			dst[i].sumF += src[i].sumF
		case plan.AggMin:
			if src[i].seen && (!dst[i].seen || types.Compare(src[i].min, dst[i].min) < 0) {
				dst[i].min = src[i].min
			}
		case plan.AggMax:
			if src[i].seen && (!dst[i].seen || types.Compare(src[i].max, dst[i].max) > 0) {
				dst[i].max = src[i].max
			}
		}
		dst[i].seen = dst[i].seen || src[i].seen
	}
}

// aggPerGroup is the parallel path for aggregate sets whose partial
// states do not merge exactly (float SUM/AVG, DISTINCT): keys are
// pre-encoded in parallel, groups are discovered in one sequential pass
// (numbering by first appearance), and then each group's rows are
// folded independently — in ascending row order, so every state
// transition sequence matches a one-partition fold exactly, including
// float accumulation order and DISTINCT-set insertion order.
func aggPerGroup(aggs []plan.AggSpec, groupCols, argCols []*storage.Column, n, workers int) ([]int, [][]aggState) {
	rk := encodeRowKeys(groupCols, n, workers)
	groups := make(map[string]int, 64)
	gids := make([]int32, n)
	var groupRows []int
	for row := 0; row < n; row++ {
		gid, ok := groups[rk.keys[row]]
		if !ok {
			gid = len(groupRows)
			groups[rk.keys[row]] = gid
			groupRows = append(groupRows, row)
		}
		gids[row] = int32(gid)
	}
	numGroups := len(groupRows)
	// Bucket rows by group, preserving ascending row order per group.
	counts := make([]int32, numGroups+1)
	for _, g := range gids {
		counts[g+1]++
	}
	for g := 1; g <= numGroups; g++ {
		counts[g] += counts[g-1]
	}
	order := make([]int32, n)
	next := make([]int32, numGroups)
	copy(next, counts[:numGroups])
	for row := 0; row < n; row++ {
		g := gids[row]
		order[next[g]] = int32(row)
		next[g]++
	}
	states := make([][]aggState, numGroups)
	par.Indexed(workers, numGroups, func(_, g int) {
		st := newAggStates(aggs)
		for _, row := range order[counts[g]:counts[g+1]] {
			accumRow(aggs, st, argCols, int(row))
		}
		states[g] = st
	})
	return groupRows, states
}
