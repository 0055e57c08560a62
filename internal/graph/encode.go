package graph

// Bulk dictionary encoding. The GraphMatch operator encodes two whole
// key columns (sources then destinations) at once; treating their
// concatenation as one key stream lets the expensive part — hashing
// every key — run chunked across workers while keeping the dense-ID
// assignment deterministic. Every loop polls the optional cancellation
// context every cancelCheckInterval keys, so a cancel landing during
// ad-hoc graph construction aborts the encode within a few thousand
// keys instead of waiting for the whole column pair.

import (
	"context"

	"graphsql/internal/fault"
	"graphsql/internal/par"
)

// EncodeColumnsIntCtx encodes the concatenation of the given int64 key
// columns, writing dense IDs into the parallel outs slices (outs[c]
// must have len(cols[c])). IDs are identical to sequential EncodeInt
// calls in stream order, for any parallelism. On cancellation the
// dictionary is left partially populated and must be discarded; the
// outs contents are unspecified.
func (d *Dict) EncodeColumnsIntCtx(ctx context.Context, cols [][]int64, outs [][]VertexID, parallelism int) error {
	return encode(ctx, d.ints, &d.n, cols, outs, parallelism)
}

// EncodeColumnsStringCtx is EncodeColumnsIntCtx over the string key
// space.
func (d *Dict) EncodeColumnsStringCtx(ctx context.Context, cols [][]string, outs [][]VertexID, parallelism int) error {
	return encode(ctx, d.strs, &d.n, cols, outs, parallelism)
}

// encode is the dictionary-encode core. The key stream is split into
// one contiguous range per worker the size gate grants, then:
//
//  1. range 0 interns its keys straight into the dictionary; every
//     other range numbers its keys by first occurrence in a private
//     map, writing range-local ids into outs and collecting its
//     distinct keys in order;
//  2. one sequential pass interns those ranges' distinct keys in
//     stream order, recording a local-to-dense remap per range;
//  3. each range but the first rewrites its outs through its remap.
//
// Range 0 comes first in stream order, so a key's id is fixed by the
// first range holding it, at its first occurrence there: ids are
// exactly those of sequential EncodeInt calls in stream order, over an
// empty or a populated dictionary. On one worker this is one pass over
// one map, which grows with the distinct keys rather than being sized
// by edges.
func encode[K comparable](ctx context.Context, m map[K]VertexID, next *VertexID, cols [][]K, outs [][]VertexID, parallelism int) error {
	total := 0
	for _, col := range cols {
		total += len(col)
	}
	workers := par.Gated(parallelism, total, minParallelEncodeKeys)
	ranges := par.NumRanges(workers, total)
	distinct := make([][]K, ranges)
	// ferr collects per-range injected faults (disjoint slots, read
	// after each phase's barrier).
	ferr := make([]error, ranges)
	cp := &cancelPoller{ctx: ctx}
	par.Ranges(workers, total, func(w, lo, hi int) {
		if err := fault.Inject(fault.PointGraphEncodeChunk); err != nil {
			ferr[w] = err
			return
		}
		if w == 0 {
			segments(cols, lo, hi, func(c, a, b int) {
				col, out := cols[c], outs[c]
				for j := a; j < b; j++ {
					if j&(cancelCheckInterval-1) == 0 && cp.poll() {
						return
					}
					k := col[j]
					id, ok := m[k]
					if !ok {
						id = *next
						m[k] = id
						*next++
					}
					out[j] = id
				}
			})
			return
		}
		local := make(map[K]VertexID)
		var keys []K
		segments(cols, lo, hi, func(c, a, b int) {
			col, out := cols[c], outs[c]
			for j := a; j < b; j++ {
				if j&(cancelCheckInterval-1) == 0 && cp.poll() {
					return
				}
				k := col[j]
				id, ok := local[k]
				if !ok {
					id = VertexID(len(keys))
					local[k] = id
					keys = append(keys, k)
				}
				out[j] = id
			}
		})
		distinct[w] = keys
	})
	if err := canceled(ctx); err != nil {
		return err
	}
	if err := firstError(ferr); err != nil {
		return err
	}
	remaps := make([][]VertexID, ranges)
	for w := 1; w < ranges; w++ {
		if err := canceled(ctx); err != nil {
			return err
		}
		remap := make([]VertexID, len(distinct[w]))
		for j, k := range distinct[w] {
			id, ok := m[k]
			if !ok {
				id = *next
				m[k] = id
				*next++
			}
			remap[j] = id
		}
		remaps[w] = remap
	}
	par.Ranges(workers, total, func(w, lo, hi int) {
		if w == 0 { // range 0 interned into the dictionary itself
			return
		}
		remap := remaps[w]
		// ferr slots are all nil again (a phase-1 fault returned early).
		if err := fault.Inject(fault.PointGraphEncodeChunk); err != nil {
			ferr[w] = err
			return
		}
		segments(cols, lo, hi, func(c, a, b int) {
			out := outs[c]
			for j := a; j < b; j++ {
				if j&(cancelCheckInterval-1) == 0 && cp.poll() {
					return
				}
				out[j] = remap[out[j]]
			}
		})
	})
	if err := canceled(ctx); err != nil {
		return err
	}
	return firstError(ferr)
}

// segments calls f(c, a, b) for every piece cols[c][a:b] of the
// positions [lo, hi) of the concatenated key stream.
func segments[K any](cols [][]K, lo, hi int, f func(c, a, b int)) {
	base := 0
	for c, col := range cols {
		if a, b := max(lo-base, 0), min(hi-base, len(col)); a < b {
			f(c, a, b)
		}
		base += len(col)
	}
}
