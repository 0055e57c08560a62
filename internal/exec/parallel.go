package exec

import (
	"sort"

	"graphsql/internal/par"
	"graphsql/internal/storage"
)

// Every relational breaker (join, GROUP BY, DISTINCT, the deduplicating
// set operations, ORDER BY) has exactly one core, written against a
// worker count, with the same discipline as the shortest-path runtime
// (internal/graph): work partitioned over disjoint output locations and
// per-range results merged in a fixed order, so the output is
// bit-identical at any worker count. The size gate only picks how many
// workers run that core; at one worker it is one shard and a plain loop
// with no goroutines, no hashing and no bucketing.

// minParallelRows gates the worker count of the relational operators;
// inputs below it run their core on one worker (see par.Gated).
const minParallelRows = 1 << 13

// workers resolves the worker count for an operator over n rows: 1
// below the gate, the context's budget otherwise.
func (ctx *Context) workers(n int) int {
	return par.Gated(ctx.Parallelism, n, minParallelRows)
}

// FNV-1a, used to shard rows by hash key. The shard assignment never
// influences operator output (shards are either merged in ascending
// row order or independent by construction), so the hash only has to
// be deterministic within one process. One shard needs no hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// rowKeys holds the precomputed hash key and shard hash of every row
// of an operator input, built in parallel over contiguous ranges.
type rowKeys struct {
	keys []string
	// hashes is nil at one worker: everything lands in shard 0.
	hashes []uint64
}

// shardOf maps a key hash onto one of the given shards.
func shardOf(h uint64, shards int) int { return int(h % uint64(shards)) }

// encodeRowKeys precomputes the self-delimiting encodeKey bytes (as a
// string) for every row over the given key columns, and their hash
// when the rows will be spread over workers > 1 shards.
func encodeRowKeys(cols []*storage.Column, n int, workers int) *rowKeys {
	rk := &rowKeys{keys: make([]string, n)}
	if workers > 1 {
		rk.hashes = make([]uint64, n)
	}
	par.Ranges(workers, n, func(_, lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			buf = appendRowKey(buf[:0], cols, i)
			rk.keys[i] = string(buf)
			if rk.hashes != nil {
				rk.hashes[i] = fnv64(buf)
			}
		}
	})
	return rk
}

// shardRows buckets the row indices [0, n) into one shard per worker,
// each list in ascending order. Built with one parallel bucketing pass
// (per-range lists concatenated in range order) so shard workers visit
// only their own rows instead of re-scanning the whole input. One
// worker means one shard holding every row.
func (rk *rowKeys) shardRows(workers, n int) [][]int {
	if workers <= 1 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return [][]int{rows}
	}
	nRanges := par.NumRanges(workers, n)
	locals := make([][][]int, nRanges)
	par.Ranges(workers, n, func(w, lo, hi int) {
		lists := make([][]int, workers)
		for i := lo; i < hi; i++ {
			s := shardOf(rk.hashes[i], workers)
			lists[s] = append(lists[s], i)
		}
		locals[w] = lists
	})
	out := make([][]int, workers)
	par.Indexed(workers, workers, func(_, s int) {
		total := 0
		for _, l := range locals {
			total += len(l[s])
		}
		list := make([]int, 0, total)
		for _, l := range locals {
			list = append(list, l[s]...)
		}
		out[s] = list
	})
	return out
}

// firstOccurrences returns, ascending, the rows whose key has not
// occurred before — exactly the rows a sequential dedup scan keeps.
// Rows are hash-partitioned by key, each shard keeps its first
// occurrences in ascending row order, and the per-shard survivors merge
// back in ascending row order.
func (rk *rowKeys) firstOccurrences(workers int) []int {
	n := len(rk.keys)
	shards := rk.shardRows(workers, n)
	keeps := make([][]int, len(shards))
	par.Indexed(workers, len(shards), func(_, s int) {
		seen := make(map[string]struct{}, len(shards[s]))
		var keep []int
		for _, i := range shards[s] {
			if _, dup := seen[rk.keys[i]]; !dup {
				seen[rk.keys[i]] = struct{}{}
				keep = append(keep, i)
			}
		}
		keeps[s] = keep
	})
	return mergeAscending(keeps, n)
}

// mergeAscending merges per-shard row-index lists into one ascending
// list. The shards partition a dense id domain [0, n), so a boolean
// mask plus one linear scan recovers the ascending order in O(n) —
// the same list a sequential scan would have kept, without the
// O(n × shards) head-scan of a naive k-way merge.
func mergeAscending(shards [][]int, n int) []int {
	total := 0
	nonEmpty := 0
	for _, s := range shards {
		total += len(s)
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		for _, s := range shards {
			if len(s) > 0 {
				return s
			}
		}
	}
	mask := make([]bool, n)
	for _, s := range shards {
		for _, i := range s {
			mask[i] = true
		}
	}
	out := make([]int, 0, total)
	for i, keep := range mask {
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// parallelMergeSort stably sorts idx under less using one sorted run
// per worker followed by rounds of pairwise parallel merges. Ties take
// the element from the earlier run, so the result is the unique stable
// order — identical to sort.SliceStable for any worker count.
func parallelMergeSort(idx []int, less func(a, b int) bool, workers int) {
	n := len(idx)
	nRuns := par.NumRanges(workers, n)
	if nRuns <= 1 {
		sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		return
	}
	bounds := make([]int, 1, nRuns+1)
	for w := 0; w < nRuns; w++ {
		_, hi := par.RangeBounds(workers, n, w)
		bounds = append(bounds, hi)
	}
	par.Indexed(workers, nRuns, func(_, r int) {
		seg := idx[bounds[r]:bounds[r+1]]
		sort.SliceStable(seg, func(a, b int) bool { return less(seg[a], seg[b]) })
	})
	src, dst := idx, make([]int, n)
	for len(bounds) > 2 {
		type job struct{ lo, mid, hi int }
		var jobs []job
		nb := make([]int, 1, len(bounds)/2+2)
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			jobs = append(jobs, job{bounds[i], bounds[i+1], bounds[i+2]})
			nb = append(nb, bounds[i+2])
		}
		if i+1 < len(bounds) {
			// Odd run count: the last run has no partner this round.
			jobs = append(jobs, job{bounds[i], bounds[i+1], bounds[i+1]})
			nb = append(nb, bounds[i+1])
		}
		par.Indexed(workers, len(jobs), func(_, j int) {
			jb := jobs[j]
			mergeRuns(dst[jb.lo:jb.hi], src[jb.lo:jb.mid], src[jb.mid:jb.hi], less)
		})
		src, dst = dst, src
		bounds = nb
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// mergeRuns stably merges the sorted runs a and b into out; ties take
// from a (the earlier run).
func mergeRuns(out, a, b []int, less func(x, y int) bool) {
	i, j := 0, 0
	for k := range out {
		switch {
		case i >= len(a):
			out[k] = b[j]
			j++
		case j >= len(b):
			out[k] = a[i]
			i++
		case less(b[j], a[i]):
			out[k] = b[j]
			j++
		default:
			out[k] = a[i]
			i++
		}
	}
}
