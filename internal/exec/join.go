package exec

import (
	"graphsql/internal/expr"
	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
)

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

// joinCore joins two materialized operands. Semi and anti joins filter
// the left side; cross, inner and left outer joins materialize their
// matching pairs.
func joinCore(j *plan.Join, left, right *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	if j.Type == plan.JoinSemi || j.Type == plan.JoinAnti {
		return semiAntiJoin(j, left, right, ctx)
	}
	li, ri, err := matchPairs(j.On, left, right, ctx)
	if err != nil {
		return nil, err
	}
	if j.Type == plan.JoinLeft {
		li, ri = nullExtend(li, ri, left.NumRows())
	}
	return pairChunk(j.Schema(), left, right, li, ri, ctx.workers(len(li))), nil
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
	out := left.Gather(keep, ctx.workers(len(keep)))
	out.Schema = j.Schema()
	return out, nil
}

// matchPairs computes the matching (left, right) row pairs of a join
// condition (nil: every pair), hash-based when equality pairs exist
// (see hashMatch), all pairs filtered by the residual otherwise; pairs
// come out ordered by left row, then right row.
func matchPairs(on expr.Expr, left, right *storage.Chunk, ctx *Context) ([]int, []int, error) {
	nLeft := len(left.Schema)
	keys, residual := extractEquiKeys(on, nLeft)
	var li, ri []int
	nl, nr := left.NumRows(), right.NumRows()
	if len(keys) > 0 {
		li, ri = hashMatch(keys, left, right, ctx.workers(nl+nr))
	} else {
		total := nl * nr
		li, ri = make([]int, total), make([]int, total)
		par.Ranges(ctx.workers(total), total, func(_, lo, hi int) {
			for t := lo; t < hi; t++ {
				li[t], ri[t] = t/nr, t%nr
			}
		})
	}
	if residual != nil && len(li) > 0 {
		sch := append(append(storage.Schema{}, left.Schema...), right.Schema...)
		cand := pairChunk(sch, left, right, li, ri, ctx.workers(len(li)))
		sel, err := expr.Select(ctx.Expr, residual, cand, nil)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range sel {
			li[k], ri[k] = li[i], ri[i]
		}
		li, ri = li[:len(sel)], ri[:len(sel)]
	}
	return li, ri, nil
}

// hashMatch is the hash join. Build: every worker owns one key-hash
// shard and inserts its rows in ascending row order, so each per-key
// row list is what a sequential build makes. Probe: contiguous
// left-row ranges encode each key into one reused buffer, look it up
// without allocating, and emit pair runs that concatenate in range
// order. One worker is one shard and one range: the sequential
// build/probe itself.
func hashMatch(keys []equiKey, left, right *storage.Chunk, workers int) ([]int, []int) {
	nl, nr := left.NumRows(), right.NumRows()
	lcols := make([]*storage.Column, len(keys))
	rcols := make([]*storage.Column, len(keys))
	for i, k := range keys {
		lcols[i] = left.Cols[k.l]
		rcols[i] = right.Cols[k.r]
	}
	// Build rows with a NULL key stay in the maps under a key no probe
	// looks up: the probe skips NULL keys, and a NULL encodes as a tag
	// no value uses.
	rk := encodeRowKeys(rcols, nr, workers)
	shardRows := rk.shardRows(workers, nr)
	maps := make([]map[string][]int, len(shardRows))
	par.Indexed(workers, len(shardRows), func(_, s int) {
		m := make(map[string][]int, len(shardRows[s]))
		for _, b := range shardRows[s] {
			m[rk.keys[b]] = append(m[rk.keys[b]], b)
		}
		maps[s] = m
	})
	type pairRun struct{ li, ri []int }
	runs := make([]pairRun, par.NumRanges(workers, nl))
	par.Ranges(workers, nl, func(w, lo, hi int) {
		var li, ri []int
		var buf []byte
	probe:
		for a := lo; a < hi; a++ {
			buf = buf[:0]
			for _, c := range lcols {
				if c.IsNull(a) {
					continue probe // NULL never matches
				}
				buf = encodeKey(buf, c, a)
			}
			m := maps[0]
			if len(maps) > 1 {
				m = maps[shardOf(fnv64(buf), len(maps))]
			}
			for _, b := range m[string(buf)] {
				li = append(li, a)
				ri = append(ri, b)
			}
		}
		runs[w] = pairRun{li, ri}
	})
	if len(runs) == 1 {
		return runs[0].li, runs[0].ri
	}
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

// pairChunk materializes (li, ri) pairs under the concatenated schema
// sch; ri == -1 null-extends the right side (left outer join).
func pairChunk(sch storage.Schema, left, right *storage.Chunk, li, ri []int, workers int) *storage.Chunk {
	out := &storage.Chunk{Schema: sch}
	for _, c := range left.Cols {
		out.Cols = append(out.Cols, c.Gather(li, workers))
	}
	for _, c := range right.Cols {
		out.Cols = append(out.Cols, c.GatherNullExtend(ri, workers))
	}
	return out
}

// nullExtend adds every left row without a match to the pair list
// (left outer join), paired with -1; the list stays ordered by left
// row.
func nullExtend(li, ri []int, nl int) ([]int, []int) {
	oli := make([]int, 0, len(li)+nl)
	ori := make([]int, 0, len(li)+nl)
	k := 0
	for a := 0; a < nl; a++ {
		if k == len(li) || li[k] != a {
			oli, ori = append(oli, a), append(ori, -1)
		}
		for ; k < len(li) && li[k] == a; k++ {
			oli, ori = append(oli, a), append(ori, ri[k])
		}
	}
	return oli, ori
}
