package graph

// Bulk dictionary encoding. The GraphMatch operator encodes two whole
// key columns (sources then destinations) at once, as one key stream
// in one sequential pass. Int keys whose span is small against the
// stream take the dense form of the dictionary (see Dict): one min/max
// pass, then one pass over a table indexed by key − min, with no
// hashing at all. Other keys take one pass over the dictionary's map.
// The pass polls the optional cancellation context every
// cancelCheckInterval keys, so a cancel landing during ad-hoc graph
// construction aborts the encode within a few thousand keys instead of
// waiting for the whole column pair.

import (
	"context"
	"math"

	"graphsql/internal/fault"
)

// EncodeColumnsIntCtx encodes the concatenation of the given int64 key
// columns, writing dense IDs into the parallel outs slices (outs[c]
// must have len(cols[c])). IDs are identical to sequential EncodeInt
// calls in stream order. Over an empty dictionary whose keys span at
// most a quarter of the keys in the stream (max − min + 1 ≤ keys/4) it
// takes the dense form, whose table is then at most half the size of
// one id column. On cancellation the dictionary is left partially
// populated and must be discarded; the outs contents are unspecified.
// The last argument is ignored: the encode is one sequential pass.
func (d *Dict) EncodeColumnsIntCtx(ctx context.Context, cols [][]int64, outs [][]VertexID, _ int) error {
	if d.n == 0 {
		if lo, span, ok := denseSpan(cols); ok {
			return d.encodeDense(ctx, cols, outs, lo, span)
		}
	}
	return encodeColumns(ctx, cols, outs, func(keys []int64, out []VertexID) {
		for j, k := range keys {
			out[j] = d.EncodeInt(k)
		}
	})
}

// encodeDense takes the dense form for an empty dictionary: a table of
// span slots from lo, which holds every key of cols.
func (d *Dict) encodeDense(ctx context.Context, cols [][]int64, outs [][]VertexID, lo int64, span int) error {
	d.lo, d.dense = lo, make([]VertexID, span)
	dense := d.dense
	return encodeColumns(ctx, cols, outs, func(keys []int64, out []VertexID) {
		n := d.n
		for j, k := range keys {
			slot := &dense[k-lo]
			if *slot == 0 {
				n++
				*slot = n
			}
			out[j] = *slot - 1
		}
		d.n = n
	})
}

// EncodeColumnsStringCtx is EncodeColumnsIntCtx over the string key
// space, which always takes the map. The last argument is ignored.
func (d *Dict) EncodeColumnsStringCtx(ctx context.Context, cols [][]string, outs [][]VertexID, _ int) error {
	return encodeColumns(ctx, cols, outs, func(keys []string, out []VertexID) {
		for j, k := range keys {
			out[j] = d.EncodeString(k)
		}
	})
}

// denseSpan returns the least key of cols and the span max − min + 1
// of their keys, and whether that span is at most a quarter of the
// keys. max − min is taken as uint64, which holds it for any pair of
// int64 keys; comparing it with keys/4 strictly keeps the + 1 from
// overflowing. No keys give a difference of 1, against a quarter of 0.
func denseSpan(cols [][]int64) (lo int64, span int, ok bool) {
	keys := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, col := range cols {
		for _, k := range col {
			lo, hi = min(lo, k), max(hi, k)
		}
		keys += len(col)
	}
	diff := uint64(hi) - uint64(lo)
	if diff >= uint64(keys/4) {
		return 0, 0, false
	}
	return lo, int(diff) + 1, true
}

// encodeColumns hands encode the concatenated columns in stream order,
// in blocks of at most cancelCheckInterval keys with their id slices.
// Before each block it polls ctx and fires fault.PointGraphEncodeChunk.
func encodeColumns[K any](ctx context.Context, cols [][]K, outs [][]VertexID, encode func(keys []K, out []VertexID)) error {
	for c, col := range cols {
		for lo := 0; lo < len(col); lo += cancelCheckInterval {
			if err := canceled(ctx); err != nil {
				return err
			}
			if err := fault.Inject(fault.PointGraphEncodeChunk); err != nil {
				return err
			}
			hi := min(lo+cancelCheckInterval, len(col))
			encode(col[lo:hi], outs[c][lo:hi])
		}
	}
	return nil
}
