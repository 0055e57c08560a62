package exec

import (
	"cmp"
	"math"
	"slices"

	"graphsql/internal/expr"
	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
)

func mathFloat64bits(f float64) uint64 { return math.Float64bits(f) }

// equiKey is one equality pair extracted from a join condition:
// leftCol = rightCol (indices local to each side).
type equiKey struct{ l, r int }

// extractEquiKeys splits a join condition into hashable equality pairs
// and a residual predicate (still over the concatenated schema).
func extractEquiKeys(on expr.Expr, nLeft int) ([]equiKey, expr.Expr) {
	var keys []equiKey
	var residual []expr.Expr
	for _, c := range expr.SplitConjuncts(on, nil) {
		if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.CmpEq {
			lref, lok := cmp.L.(*expr.ColRef)
			rref, rok := cmp.R.(*expr.ColRef)
			if lok && rok {
				switch {
				case lref.Idx < nLeft && rref.Idx >= nLeft:
					keys = append(keys, equiKey{lref.Idx, rref.Idx - nLeft})
					continue
				case rref.Idx < nLeft && lref.Idx >= nLeft:
					keys = append(keys, equiKey{rref.Idx, lref.Idx - nLeft})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return keys, expr.AndAll(residual)
}

// joinCore joins two materialized operands.
func joinCore(j *plan.Join, left, right *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	switch j.Type {
	case plan.JoinCross:
		return crossJoin(j, left, right, ctx), nil
	case plan.JoinSemi, plan.JoinAnti:
		return semiAntiJoin(j, left, right, ctx)
	default:
		return condJoin(j, left, right, ctx)
	}
}

// semiAntiJoin filters the left side by match existence on the right.
// A nil condition tests whether the right side is non-empty (EXISTS).
func semiAntiJoin(j *plan.Join, left, right *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	nl := left.NumRows()
	matched := make([]bool, nl)
	if j.On == nil {
		if right.NumRows() > 0 {
			for i := range matched {
				matched[i] = true
			}
		}
	} else {
		li, _, err := matchPairs(j.On, left, right, ctx)
		if err != nil {
			return nil, err
		}
		for _, a := range li {
			matched[a] = true
		}
	}
	keepMatched := j.Type == plan.JoinSemi
	var keep []int
	for a := 0; a < nl; a++ {
		if matched[a] == keepMatched {
			keep = append(keep, a)
		}
	}
	out := left.GatherP(keep, ctx.workers(len(keep)))
	out.Schema = j.Schema()
	return out, nil
}

// matchPairs computes the matching (left, right) row pairs of a join
// condition, hash-based when equality pairs exist. The hash path
// partitions the build side over key-hash shards and the probe side
// over contiguous left-row ranges; per-range outputs concatenate in
// range order, so the pair list is identical to the sequential
// build/probe at any worker count.
func matchPairs(on expr.Expr, left, right *storage.Chunk, ctx *Context) ([]int, []int, error) {
	nLeft := len(left.Schema)
	keys, residual := extractEquiKeys(on, nLeft)
	var li, ri []int
	nl, nr := left.NumRows(), right.NumRows()
	if len(keys) > 0 {
		workers := ctx.workers(nl + nr)
		if workers <= 1 {
			li, ri = hashMatchSeq(keys, left, right)
		} else {
			li, ri = hashMatchPar(keys, left, right, workers)
		}
	} else {
		for a := 0; a < nl; a++ {
			for b := 0; b < nr; b++ {
				li = append(li, a)
				ri = append(ri, b)
			}
		}
	}
	if residual != nil && len(li) > 0 {
		workers := ctx.workers(len(li))
		cand := pairChunk(left, right, li, ri, workers)
		pc, err := residual.Eval(ctx.Expr, cand)
		if err != nil {
			return nil, nil, err
		}
		var fli, fri []int
		for i := range li {
			if !pc.IsNull(i) && pc.Ints[i] != 0 {
				fli = append(fli, li[i])
				fri = append(fri, ri[i])
			}
		}
		li, ri = fli, fri
	}
	return li, ri, nil
}

// hashMatchSeq is the single-threaded hash join: build a map over the
// right side, probe with the left side in row order.
func hashMatchSeq(keys []equiKey, left, right *storage.Chunk) (li, ri []int) {
	nl, nr := left.NumRows(), right.NumRows()
	build := make(map[string][]int, nr)
	var buf []byte
	for b := 0; b < nr; b++ {
		buf = buf[:0]
		null := false
		for _, k := range keys {
			if right.Cols[k.r].IsNull(b) {
				null = true
				break
			}
			buf = encodeKey(buf, right.Cols[k.r], b)
		}
		if null {
			continue
		}
		build[string(buf)] = append(build[string(buf)], b)
	}
	for a := 0; a < nl; a++ {
		buf = buf[:0]
		null := false
		for _, k := range keys {
			if left.Cols[k.l].IsNull(a) {
				null = true
				break
			}
			buf = encodeKey(buf, left.Cols[k.l], a)
		}
		if null {
			continue
		}
		for _, b := range build[string(buf)] {
			li = append(li, a)
			ri = append(ri, b)
		}
	}
	return li, ri
}

// hashMatchPar is the partitioned hash join. Build: every worker owns
// one key-hash shard and inserts its rows in ascending row order, so
// each per-key row list matches the sequential build. Probe: contiguous
// left-row ranges emit pair runs that concatenate in range order.
func hashMatchPar(keys []equiKey, left, right *storage.Chunk, workers int) ([]int, []int) {
	nl, nr := left.NumRows(), right.NumRows()
	lcols := make([]*storage.Column, len(keys))
	rcols := make([]*storage.Column, len(keys))
	for i, k := range keys {
		lcols[i] = left.Cols[k.l]
		rcols[i] = right.Cols[k.r]
	}
	rk := encodeRowKeys(rcols, nr, true, workers)
	shards := workers
	shardRows := rk.shardRows(shards, workers, nr)
	maps := make([]map[string][]int, shards)
	par.Indexed(workers, shards, func(_, s int) {
		m := make(map[string][]int, len(shardRows[s]))
		for _, b := range shardRows[s] {
			m[rk.keys[b]] = append(m[rk.keys[b]], b)
		}
		maps[s] = m
	})
	lk := encodeRowKeys(lcols, nl, true, workers)
	nRanges := par.NumRanges(workers, nl)
	type pairRun struct{ li, ri []int }
	runs := make([]pairRun, nRanges)
	par.Ranges(workers, nl, func(w, lo, hi int) {
		var li, ri []int
		for a := lo; a < hi; a++ {
			if lk.invalid[a] {
				continue
			}
			for _, b := range maps[lk.shard(a, shards)][lk.keys[a]] {
				li = append(li, a)
				ri = append(ri, b)
			}
		}
		runs[w] = pairRun{li, ri}
	})
	total := 0
	for _, r := range runs {
		total += len(r.li)
	}
	li := make([]int, 0, total)
	ri := make([]int, 0, total)
	for _, r := range runs {
		li = append(li, r.li...)
		ri = append(ri, r.ri...)
	}
	return li, ri
}

// pairChunk materializes candidate pairs over the concatenated schema
// for residual evaluation.
func pairChunk(left, right *storage.Chunk, li, ri []int, workers int) *storage.Chunk {
	out := &storage.Chunk{}
	out.Schema = append(append(storage.Schema{}, left.Schema...), right.Schema...)
	for _, c := range left.Cols {
		out.Cols = append(out.Cols, c.GatherP(li, workers))
	}
	for _, c := range right.Cols {
		out.Cols = append(out.Cols, c.GatherP(ri, workers))
	}
	return out
}

// joinOutput materializes the (li, ri) pairs; ri == -1 null-extends
// the right side (left outer join).
func joinOutput(j *plan.Join, left, right *storage.Chunk, li, ri []int, ctx *Context) *storage.Chunk {
	workers := ctx.workers(len(li))
	out := &storage.Chunk{Schema: j.Schema()}
	for _, c := range left.Cols {
		out.Cols = append(out.Cols, c.GatherP(li, workers))
	}
	for _, c := range right.Cols {
		out.Cols = append(out.Cols, c.GatherNullExtend(ri, workers))
	}
	return out
}

func crossJoin(j *plan.Join, left, right *storage.Chunk, ctx *Context) *storage.Chunk {
	nl, nr := left.NumRows(), right.NumRows()
	total := nl * nr
	li := make([]int, total)
	ri := make([]int, total)
	par.Ranges(ctx.workers(total), total, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			li[t] = t / nr
			ri[t] = t % nr
		}
	})
	return joinOutput(j, left, right, li, ri, ctx)
}

// condJoin implements inner and left outer joins: hash-based when the
// condition contains equality pairs, nested-loop otherwise.
func condJoin(j *plan.Join, left, right *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	li, ri, err := matchPairs(j.On, left, right, ctx)
	if err != nil {
		return nil, err
	}
	nl := left.NumRows()

	if j.Type == plan.JoinLeft {
		matched := make([]bool, nl)
		for _, a := range li {
			matched[a] = true
		}
		for a := 0; a < nl; a++ {
			if !matched[a] {
				li = append(li, a)
				ri = append(ri, -1)
			}
		}
		// Keep output deterministic: order by left row, then right.
		li, ri = sortPairs(li, ri)
	}
	return joinOutput(j, left, right, li, ri, ctx), nil
}

// sortPairs orders join output pairs for stable results.
func sortPairs(li, ri []int) ([]int, []int) {
	type pair struct{ a, b int }
	ps := make([]pair, len(li))
	for i := range li {
		ps[i] = pair{li[i], ri[i]}
	}
	slices.SortFunc(ps, func(x, y pair) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	for i, p := range ps {
		li[i], ri[i] = p.a, p.b
	}
	return li, ri
}
