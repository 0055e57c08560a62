package storage

import (
	"math/rand"
	"reflect"
	"testing"

	"graphsql/internal/types"
)

// gatherReference is the plain loop Gather is held to: one entry per
// row index, copied in order.
func gatherReference(c *Column, rows []int) []types.Value {
	out := make([]types.Value, len(rows))
	for i, r := range rows {
		out[i] = c.Get(r)
	}
	return out
}

// TestGatherMatchesReferenceAtEveryWorkerCount checks Column.Gather and
// Chunk.Gather at 1, 2, 3 and 7 workers, with and without NULLs, for
// every payload kind, against the reference loop.
func TestGatherMatchesReferenceAtEveryWorkerCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 1000
	path := &types.Path{Cols: []string{"s", "d"}, Kinds: []types.Kind{types.KindInt, types.KindInt}}
	value := func(kind types.Kind, i int) types.Value {
		switch kind {
		case types.KindFloat:
			return types.NewFloat(float64(i) / 4)
		case types.KindString:
			return types.NewString(string(rune('a' + i%26)))
		case types.KindPath:
			return types.NewPath(path)
		case types.KindBool:
			return types.NewBool(i%3 == 0)
		default:
			return types.NewInt(int64(i * 7))
		}
	}
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindPath, types.KindBool}
	for _, withNulls := range []bool{false, true} {
		chunk := &Chunk{}
		for _, kind := range kinds {
			c := NewColumn(kind, n)
			for i := 0; i < n; i++ {
				if withNulls && i%5 == 2 {
					c.AppendNull()
				} else {
					c.Append(value(kind, i))
				}
			}
			chunk.Schema = append(chunk.Schema, ColMeta{Name: kind.String(), Kind: kind})
			chunk.Cols = append(chunk.Cols, c)
		}
		for _, size := range []int{0, 1, 5, n, 3 * n} {
			rows := make([]int, size)
			for i := range rows {
				rows[i] = r.Intn(n)
			}
			for _, workers := range []int{1, 2, 3, 7} {
				got := chunk.Gather(rows, workers)
				for j, c := range chunk.Cols {
					g := got.Cols[j]
					if err := g.Validate(); err != nil {
						t.Fatalf("nulls=%v size=%d workers=%d %v: %v", withNulls, size, workers, c.Kind, err)
					}
					if (g.Nulls != nil) != (c.Nulls != nil) {
						t.Fatalf("nulls=%v size=%d workers=%d %v: null mask presence %v, want %v",
							withNulls, size, workers, c.Kind, g.Nulls != nil, c.Nulls != nil)
					}
					gv := make([]types.Value, g.Len())
					for i := range gv {
						gv[i] = g.Get(i)
					}
					if want := gatherReference(c, rows); !reflect.DeepEqual(gv, want) {
						t.Fatalf("nulls=%v size=%d workers=%d %v: gathered values differ from the reference loop",
							withNulls, size, workers, c.Kind)
					}
				}
			}
		}
	}
}
