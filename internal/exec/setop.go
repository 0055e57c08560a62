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
	nl, nr := left.NumRows(), right.NumRows()
	workers := ctx.workers(nl + nr)
	if workers > 1 {
		return setOpSharded(s, left, right, workers)
	}
	rowKey := func(c *storage.Chunk, i int, buf []byte) []byte {
		buf = buf[:0]
		for _, col := range c.Cols {
			buf = encodeKey(buf, col, i)
		}
		return buf
	}
	var buf []byte
	switch s.Op {
	case "UNION":
		out := storage.NewChunk(left.Schema)
		seen := make(map[string]struct{})
		appendFrom := func(c *storage.Chunk) {
			for i := 0; i < c.NumRows(); i++ {
				buf = rowKey(c, i, buf)
				if _, dup := seen[string(buf)]; dup {
					continue
				}
				seen[string(buf)] = struct{}{}
				out.AppendRow(c.Row(i))
			}
		}
		appendFrom(left)
		appendFrom(right)
		return out, nil
	case "EXCEPT":
		// Multiset semantics for ALL, set semantics otherwise.
		rightCount := make(map[string]int)
		for i := 0; i < right.NumRows(); i++ {
			buf = rowKey(right, i, buf)
			rightCount[string(buf)]++
		}
		out := storage.NewChunk(left.Schema)
		emitted := make(map[string]struct{})
		for i := 0; i < left.NumRows(); i++ {
			buf = rowKey(left, i, buf)
			k := string(buf)
			if s.All {
				if rightCount[k] > 0 {
					rightCount[k]--
					continue
				}
				out.AppendRow(left.Row(i))
			} else {
				if rightCount[k] > 0 {
					continue
				}
				if _, dup := emitted[k]; dup {
					continue
				}
				emitted[k] = struct{}{}
				out.AppendRow(left.Row(i))
			}
		}
		return out, nil
	case "INTERSECT":
		rightCount := make(map[string]int)
		for i := 0; i < right.NumRows(); i++ {
			buf = rowKey(right, i, buf)
			rightCount[string(buf)]++
		}
		out := storage.NewChunk(left.Schema)
		emitted := make(map[string]struct{})
		for i := 0; i < left.NumRows(); i++ {
			buf = rowKey(left, i, buf)
			k := string(buf)
			if rightCount[k] <= 0 {
				continue
			}
			if s.All {
				rightCount[k]--
				out.AppendRow(left.Row(i))
			} else {
				if _, dup := emitted[k]; dup {
					continue
				}
				emitted[k] = struct{}{}
				out.AppendRow(left.Row(i))
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("internal: unknown set operation %s", s.Op)
}

// setOpSharded is the parallel set-operation path. Rows of both sides
// are hash-partitioned by their full-row key; each shard runs exactly
// the sequential algorithm over its rows in global row order (left
// rows 0..nl-1, then right rows as nl..nl+nr-1 for UNION), which is
// sound because UNION/EXCEPT/INTERSECT decide each row only from
// same-key rows. The per-shard survivor lists, each ascending, merge
// back in ascending order — the exact sequential output.
func setOpSharded(s *plan.SetOp, left, right *storage.Chunk, workers int) (*storage.Chunk, error) {
	nl, nr := left.NumRows(), right.NumRows()
	lk := encodeRowKeys(left.Cols, nl, false, workers)
	rk := encodeRowKeys(right.Cols, nr, false, workers)
	shards := workers

	switch s.Op {
	case "UNION":
		// keep lists hold virtual row ids: [0, nl) left, [nl, nl+nr) right.
		leftShards := lk.shardRows(shards, workers, nl)
		rightShards := rk.shardRows(shards, workers, nr)
		keeps := make([][]int, shards)
		par.Indexed(workers, shards, func(_, sh int) {
			seen := make(map[string]struct{}, len(leftShards[sh])+len(rightShards[sh]))
			var keep []int
			for _, i := range leftShards[sh] {
				if _, dup := seen[lk.keys[i]]; !dup {
					seen[lk.keys[i]] = struct{}{}
					keep = append(keep, i)
				}
			}
			for _, i := range rightShards[sh] {
				if _, dup := seen[rk.keys[i]]; !dup {
					seen[rk.keys[i]] = struct{}{}
					keep = append(keep, nl+i)
				}
			}
			keeps[sh] = keep
		})
		merged := mergeAscending(keeps, nl+nr)
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
		leftShards := lk.shardRows(shards, workers, nl)
		rightShards := rk.shardRows(shards, workers, nr)
		keeps := make([][]int, shards)
		par.Indexed(workers, shards, func(_, sh int) {
			rightCount := make(map[string]int, len(rightShards[sh]))
			for _, i := range rightShards[sh] {
				rightCount[rk.keys[i]]++
			}
			emitted := make(map[string]struct{})
			var keep []int
			for _, i := range leftShards[sh] {
				k := lk.keys[i]
				if s.Op == "EXCEPT" {
					if s.All {
						if rightCount[k] > 0 {
							rightCount[k]--
							continue
						}
						keep = append(keep, i)
					} else {
						if rightCount[k] > 0 {
							continue
						}
						if _, dup := emitted[k]; dup {
							continue
						}
						emitted[k] = struct{}{}
						keep = append(keep, i)
					}
				} else { // INTERSECT
					if rightCount[k] <= 0 {
						continue
					}
					if s.All {
						rightCount[k]--
						keep = append(keep, i)
					} else {
						if _, dup := emitted[k]; dup {
							continue
						}
						emitted[k] = struct{}{}
						keep = append(keep, i)
					}
				}
			}
			keeps[sh] = keep
		})
		out := left.GatherP(mergeAscending(keeps, nl), workers)
		out.Schema = left.Schema
		return out, nil
	}
	return nil, fmt.Errorf("internal: unknown set operation %s", s.Op)
}
