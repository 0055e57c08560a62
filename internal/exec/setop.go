package exec

import (
	"fmt"

	"graphsql/internal/par"
	"graphsql/internal/plan"
	"graphsql/internal/storage"
)

// setOpCore runs UNION/EXCEPT/INTERSECT over two materialized
// operands (UNION ALL pipelines through unionAllOp instead).
func setOpCore(s *plan.SetOp, left, right *storage.Chunk, ctx *Context) (*storage.Chunk, error) {
	if len(left.Cols) != len(right.Cols) {
		return nil, fmt.Errorf("%s: operands have %d and %d columns", s.Op, len(left.Cols), len(right.Cols))
	}
	return setOpSharded(s, left, right, ctx.workers(left.NumRows()+right.NumRows()))
}

// setOpSharded is the set-operation core. Rows of both sides are
// hash-partitioned by their full-row key; each shard runs the
// sequential algorithm over its rows in global row order (left rows
// 0..nl-1, then right rows as nl..nl+nr-1 for UNION), which is sound
// because UNION/EXCEPT/INTERSECT decide each row only from same-key
// rows. The per-shard survivor lists, each ascending, merge back in
// ascending order — the exact sequential output. One worker is one
// shard: the sequential algorithm itself.
func setOpSharded(s *plan.SetOp, left, right *storage.Chunk, workers int) (*storage.Chunk, error) {
	nl, nr := left.NumRows(), right.NumRows()
	lk := encodeRowKeys(left.Cols, nl, workers)
	rk := encodeRowKeys(right.Cols, nr, workers)

	switch s.Op {
	case "UNION":
		// UNION is DISTINCT over the virtual rows [0, nl) left,
		// [nl, nl+nr) right.
		both := &rowKeys{keys: append(lk.keys, rk.keys...), hashes: append(lk.hashes, rk.hashes...)}
		merged := both.firstOccurrences(workers)
		split := 0
		for split < len(merged) && merged[split] < nl {
			split++
		}
		rightKeep := make([]int, len(merged)-split)
		for i, v := range merged[split:] {
			rightKeep[i] = v - nl
		}
		out := left.GatherP(merged[:split], workers)
		out.Extend(right.GatherP(rightKeep, workers))
		return out, nil
	case "EXCEPT", "INTERSECT":
		leftShards := lk.shardRows(workers, nl)
		rightShards := rk.shardRows(workers, nr)
		keeps := make([][]int, len(leftShards))
		par.Indexed(workers, len(leftShards), func(_, sh int) {
			rightCount := make(map[string]int, len(rightShards[sh]))
			for _, i := range rightShards[sh] {
				rightCount[rk.keys[i]]++
			}
			// EXCEPT keeps rows absent from the right, INTERSECT rows
			// present; ALL cancels one right row per left row it matches,
			// plain set semantics keep a key's first occurrence only.
			emitted := make(map[string]struct{})
			var keep []int
			for _, i := range leftShards[sh] {
				k := lk.keys[i]
				inRight := rightCount[k] > 0
				if s.All && inRight {
					rightCount[k]--
				}
				if inRight != (s.Op == "INTERSECT") {
					continue
				}
				if !s.All {
					if _, dup := emitted[k]; dup {
						continue
					}
					emitted[k] = struct{}{}
				}
				keep = append(keep, i)
			}
			keeps[sh] = keep
		})
		return left.GatherP(mergeAscending(keeps, nl), workers), nil
	}
	return nil, fmt.Errorf("internal: unknown set operation %s", s.Op)
}
