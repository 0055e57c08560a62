//go:build gsqlpoison

package exec

import (
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// poisoning reports whether this build scribbles over reused batches.
const poisoning = true

// Poisoned entries: values no test data holds, so a consumer that read
// a batch after its owner reused it returns rows nobody wrote.
const (
	poisonInt    = -0x0BAD_BA7C_0BAD_BA7C
	poisonFloat  = -6.02214076e+66
	poisonString = "\x00poisoned batch"
)

// retire, in a poisoning build (go test -tags gsqlpoison), scribbles
// over a batch the moment its owner is about to reuse it and returns
// nil, so the owner builds its next batch afresh. The chunk's columns
// are replaced with poisoned ones of the same kinds and lengths; when
// cols is set the owner also owns the column headers, which are
// overwritten in place, so a consumer that kept a column rather than
// the chunk is caught too. The payload arrays are never written: a
// view's arrays belong to the table or breaker output it views.
func retire(c *storage.Chunk, cols bool) *storage.Chunk {
	if c == nil {
		return nil
	}
	for j, col := range c.Cols {
		p := poisonColumn(col.Kind, col.Len())
		if cols {
			*col = *p
		} else {
			c.Cols[j] = p
		}
	}
	return nil
}

// poisonColumn returns n poisoned entries of kind k, none NULL; a path
// entry is a nil path.
func poisonColumn(k types.Kind, n int) *storage.Column {
	switch k {
	case types.KindFloat:
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = poisonFloat
		}
		return storage.ColumnFromFloats(fs)
	case types.KindString:
		c := storage.NewColumn(k, n)
		for range n {
			c.AppendString(poisonString)
		}
		return c
	case types.KindPath:
		return storage.ColumnFromPaths(make([]*types.Path, n))
	}
	is := make([]int64, n)
	for i := range is {
		is[i] = poisonInt
	}
	return storage.ColumnFromInts(k, is)
}
