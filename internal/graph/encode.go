package graph

// Bulk dictionary encoding. The GraphMatch operator encodes two whole
// key columns (sources then destinations) at once; treating their
// concatenation as one key stream lets the expensive part — hashing
// every key — run chunked across workers while keeping the dense-ID
// assignment deterministic: chunks pre-deduplicate in parallel, then a
// short sequential merge interns the distinct keys in stream order
// (so every key gets exactly the ID sequential EncodeInt/EncodeString
// calls would assign), and finally the chunks fill in the output IDs
// from the then-read-only map in parallel.
//
// Every loop — sequential and per-chunk alike — polls the optional
// cancellation context every cancelCheckInterval keys, so a cancel
// landing during ad-hoc graph construction aborts the encode within a
// few thousand keys instead of waiting for the whole column pair.

import (
	"context"

	"graphsql/internal/fault"
)

// EncodeColumnsIntCtx encodes the concatenation of the given int64 key
// columns, writing dense IDs into the parallel outs slices (outs[c]
// must have len(cols[c])). IDs are identical to sequential EncodeInt
// calls in stream order, for any parallelism. The context is polled at
// chunk boundaries and every few thousand keys inside each loop. On
// cancellation the dictionary is left partially populated and must be
// discarded; the outs contents are unspecified.
func (d *Dict) EncodeColumnsIntCtx(ctx context.Context, cols [][]int64, outs [][]VertexID, parallelism int) error {
	return bulkEncode(ctx, d.ints, &d.n, cols, outs, resolveWorkers(parallelism))
}

// EncodeColumnsStringCtx is EncodeColumnsIntCtx over the string key
// space.
func (d *Dict) EncodeColumnsStringCtx(ctx context.Context, cols [][]string, outs [][]VertexID, parallelism int) error {
	return bulkEncode(ctx, d.strs, &d.n, cols, outs, resolveWorkers(parallelism))
}

// canceled polls a possibly-nil context.
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func bulkEncode[K comparable](ctx context.Context, m map[K]VertexID, next *VertexID, cols [][]K, outs [][]VertexID, workers int) error {
	total := 0
	for _, col := range cols {
		total += len(col)
	}
	if workers <= 1 || total < minParallelEncodeKeys {
		for c, col := range cols {
			if err := fault.Inject(fault.PointGraphEncodeChunk); err != nil {
				return err
			}
			out := outs[c]
			for i, k := range col {
				if i&(cancelCheckInterval-1) == 0 {
					if err := canceled(ctx); err != nil {
						return err
					}
				}
				id, ok := m[k]
				if !ok {
					id = *next
					m[k] = id
					*next = id + 1
				}
				out[i] = id
			}
		}
		return nil
	}
	return bulkEncodeParallel(ctx, m, next, cols, outs, workers, total)
}

// encodeChunk is one contiguous piece of a key column plus the keys it
// saw first within itself (phase-1 output).
type encodeChunk[K comparable] struct {
	col, lo, hi int
	distinct    []K
}

func bulkEncodeParallel[K comparable](ctx context.Context, m map[K]VertexID, next *VertexID, cols [][]K, outs [][]VertexID, workers, total int) error {
	// A few chunks per worker balances skew without shrinking chunks
	// below the point where map overhead dominates.
	size := total / (workers * 2)
	if min := minParallelEncodeKeys / 8; size < min {
		size = min
	}
	var chunks []*encodeChunk[K]
	for c, col := range cols {
		for lo := 0; lo < len(col); lo += size {
			hi := lo + size
			if hi > len(col) {
				hi = len(col)
			}
			chunks = append(chunks, &encodeChunk[K]{col: c, lo: lo, hi: hi})
		}
	}
	cp := &cancelPoller{ctx: ctx}
	// ferr collects per-chunk injected faults (disjoint slots, read
	// after each phase's barrier).
	ferr := make([]error, len(chunks))
	// Phase 1 (parallel): per-chunk dedup of keys the dictionary does
	// not already know; the shared map is read-only here.
	runIndexed(workers, len(chunks), func(_, i int) {
		if err := fault.Inject(fault.PointGraphEncodeChunk); err != nil {
			ferr[i] = err
			return
		}
		ch := chunks[i]
		keys := cols[ch.col][ch.lo:ch.hi]
		local := make(map[K]struct{}, len(keys)/4+8)
		for j, k := range keys {
			if j&(cancelCheckInterval-1) == 0 && cp.poll() {
				return
			}
			if _, ok := m[k]; ok {
				continue
			}
			if _, ok := local[k]; ok {
				continue
			}
			local[k] = struct{}{}
			ch.distinct = append(ch.distinct, k)
		}
	})
	if err := canceled(ctx); err != nil {
		return err
	}
	for _, err := range ferr {
		if err != nil {
			return err
		}
	}
	// Phase 2 (sequential): intern distinct keys in stream order so the
	// dense IDs match what a sequential pass would assign.
	for _, ch := range chunks {
		if err := canceled(ctx); err != nil {
			return err
		}
		for _, k := range ch.distinct {
			if _, ok := m[k]; !ok {
				m[k] = *next
				*next++
			}
		}
	}
	// Phase 3 (parallel): fill output IDs from the now-complete map.
	// ferr slots are all nil again (a phase-1 fault returned early).
	runIndexed(workers, len(chunks), func(_, i int) {
		if err := fault.Inject(fault.PointGraphEncodeChunk); err != nil {
			ferr[i] = err
			return
		}
		ch := chunks[i]
		keys := cols[ch.col]
		out := outs[ch.col]
		for j := ch.lo; j < ch.hi; j++ {
			if j&(cancelCheckInterval-1) == 0 && cp.poll() {
				return
			}
			out[j] = m[keys[j]]
		}
	})
	if err := canceled(ctx); err != nil {
		return err
	}
	for _, err := range ferr {
		if err != nil {
			return err
		}
	}
	return nil
}
