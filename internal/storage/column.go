// Package storage implements the columnar physical layer: typed column
// vectors with null masks, materialized chunks (intermediate results),
// base tables and the catalog. The engine follows the MonetDB execution
// model the paper builds on: every operator fully materializes its
// result (paper §3.3).
package storage

import (
	"fmt"

	"graphsql/internal/par"
	"graphsql/internal/types"
)

// Column is a typed vector of values with an optional null mask.
// Exactly one payload slice is in use, selected by Kind.
type Column struct {
	Kind types.Kind
	// Ints backs KindBool (0/1), KindInt and KindDate.
	Ints []int64
	// Floats backs KindFloat.
	Floats []float64
	// Strs backs KindString.
	Strs []string
	// Paths backs KindPath.
	Paths []*types.Path
	// Nulls marks NULL entries; nil means the column has no NULLs.
	Nulls []bool
	n     int
}

// NewColumn returns an empty column of the given kind with capacity cap.
func NewColumn(kind types.Kind, capacity int) *Column {
	c := &Column{Kind: kind}
	switch kind {
	case types.KindFloat:
		c.Floats = make([]float64, 0, capacity)
	case types.KindString:
		c.Strs = make([]string, 0, capacity)
	case types.KindPath:
		c.Paths = make([]*types.Path, 0, capacity)
	default:
		c.Ints = make([]int64, 0, capacity)
	}
	return c
}

// Len returns the number of entries in the column.
func (c *Column) Len() int { return c.n }

// HasNulls reports whether any entry is NULL.
func (c *Column) HasNulls() bool {
	if c.Nulls == nil {
		return false
	}
	for _, b := range c.Nulls {
		if b {
			return true
		}
	}
	return false
}

// IsNull reports whether entry i is NULL.
func (c *Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// ensureNulls materializes the null mask.
func (c *Column) ensureNulls() {
	if c.Nulls == nil {
		c.Nulls = make([]bool, c.n, max(c.n, 8))
	}
}

// Append adds a value to the column, converting NULL-kind values into
// typed NULLs. The value kind must match the column kind (ints widen to
// floats automatically).
func (c *Column) Append(v types.Value) {
	if v.Null {
		c.AppendNull()
		return
	}
	switch c.Kind {
	case types.KindFloat:
		c.Floats = append(c.Floats, v.AsFloat())
	case types.KindString:
		c.Strs = append(c.Strs, v.S)
	case types.KindPath:
		c.Paths = append(c.Paths, v.P)
	default:
		c.Ints = append(c.Ints, v.I)
	}
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.n++
}

// AppendNull adds a NULL entry.
func (c *Column) AppendNull() {
	c.ensureNulls()
	switch c.Kind {
	case types.KindFloat:
		c.Floats = append(c.Floats, 0)
	case types.KindString:
		c.Strs = append(c.Strs, "")
	case types.KindPath:
		c.Paths = append(c.Paths, nil)
	default:
		c.Ints = append(c.Ints, 0)
	}
	c.Nulls = append(c.Nulls, true)
	c.n++
}

// AppendInt adds a non-NULL integer-backed entry without boxing.
func (c *Column) AppendInt(i int64) {
	c.Ints = append(c.Ints, i)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.n++
}

// AppendFloat adds a non-NULL float entry without boxing.
func (c *Column) AppendFloat(f float64) {
	c.Floats = append(c.Floats, f)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.n++
}

// AppendString adds a non-NULL string entry without boxing.
func (c *Column) AppendString(s string) {
	c.Strs = append(c.Strs, s)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.n++
}

// AppendPath adds a non-NULL path entry without boxing.
func (c *Column) AppendPath(p *types.Path) {
	c.Paths = append(c.Paths, p)
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
	c.n++
}

// Get returns entry i as a boxed value.
func (c *Column) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NewNull(c.Kind)
	}
	switch c.Kind {
	case types.KindFloat:
		return types.NewFloat(c.Floats[i])
	case types.KindString:
		return types.NewString(c.Strs[i])
	case types.KindPath:
		return types.NewPath(c.Paths[i])
	case types.KindBool:
		return types.NewBool(c.Ints[i] != 0)
	case types.KindDate:
		return types.NewDate(c.Ints[i])
	default:
		return types.NewInt(c.Ints[i])
	}
}

// Slice returns a read-only view of rows [lo, hi) sharing c's backing
// arrays; the capacities are clamped so an append through the view can
// never write into c. Used by the row-batch cursor to hand out result
// windows without copying, and, as Slice(0, Len()), by base-table scans
// for a view that stays stable while the table keeps growing: later
// in-place appends land beyond it and append-triggered reallocations
// move the writer to a fresh array. The view is NOT isolated from
// in-place overwrites of existing rows — the engine never does that
// (DELETE and reloads swap whole columns).
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{Kind: c.Kind, n: hi - lo}
	switch c.Kind {
	case types.KindFloat:
		out.Floats = c.Floats[lo:hi:hi]
	case types.KindString:
		out.Strs = c.Strs[lo:hi:hi]
	case types.KindPath:
		out.Paths = c.Paths[lo:hi:hi]
	default:
		out.Ints = c.Ints[lo:hi:hi]
	}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi:hi]
	}
	return out
}

// Gather returns a new column holding the entries of c at the given
// row indices, in order. The copies are partitioned over up to workers
// goroutines in contiguous output ranges, so the result is identical
// at every worker count; callers gate by size and pass 1 for a plain
// loop on the calling goroutine.
func (c *Column) Gather(rows []int, workers int) *Column {
	out := c.sized(len(rows))
	if c.Nulls != nil {
		out.Nulls = make([]bool, len(rows))
	}
	if workers <= 1 {
		// Same range copy, minus the closure par.Ranges would allocate.
		c.gatherRange(out, rows, 0, len(rows))
	} else {
		par.Ranges(workers, len(rows), func(_, lo, hi int) { c.gatherRange(out, rows, lo, hi) })
	}
	return out
}

// gatherRange fills out[lo:hi) with the entries of c at rows[lo:hi).
func (c *Column) gatherRange(out *Column, rows []int, lo, hi int) {
	switch c.Kind {
	case types.KindFloat:
		for i := lo; i < hi; i++ {
			out.Floats[i] = c.Floats[rows[i]]
		}
	case types.KindString:
		for i := lo; i < hi; i++ {
			out.Strs[i] = c.Strs[rows[i]]
		}
	case types.KindPath:
		for i := lo; i < hi; i++ {
			out.Paths[i] = c.Paths[rows[i]]
		}
	default:
		for i := lo; i < hi; i++ {
			out.Ints[i] = c.Ints[rows[i]]
		}
	}
	if c.Nulls != nil {
		for i := lo; i < hi; i++ {
			out.Nulls[i] = c.Nulls[rows[i]]
		}
	}
}

// sized returns an n-entry column of c's kind with a zeroed payload
// and no null mask, for the gathers to fill in place.
func (c *Column) sized(n int) *Column {
	out := &Column{Kind: c.Kind, n: n}
	switch c.Kind {
	case types.KindFloat:
		out.Floats = make([]float64, n)
	case types.KindString:
		out.Strs = make([]string, n)
	case types.KindPath:
		out.Paths = make([]*types.Path, n)
	default:
		out.Ints = make([]int64, n)
	}
	return out
}

// GatherNullExtend is Gather where a row index of -1 yields a NULL
// entry (left-outer-join null extension). The null mask is dropped
// when no output entry is NULL, matching what an append-based copy
// would have produced.
func (c *Column) GatherNullExtend(rows []int, workers int) *Column {
	n := len(rows)
	out := c.sized(n)
	out.Nulls = make([]bool, n)
	par.Ranges(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := rows[i]
			if r < 0 || c.IsNull(r) {
				out.Nulls[i] = true
				continue
			}
			switch c.Kind {
			case types.KindFloat:
				out.Floats[i] = c.Floats[r]
			case types.KindString:
				out.Strs[i] = c.Strs[r]
			case types.KindPath:
				out.Paths[i] = c.Paths[r]
			default:
				out.Ints[i] = c.Ints[r]
			}
		}
	})
	hasNull := false
	for _, b := range out.Nulls {
		if b {
			hasNull = true
			break
		}
	}
	if !hasNull {
		out.Nulls = nil
	}
	return out
}

// Extend appends every entry of src, which must have the same kind, to
// c; equivalent to appending src's rows one by one.
func (c *Column) Extend(src *Column) {
	if c.Nulls != nil || src.Nulls != nil {
		c.ensureNulls()
		if src.Nulls != nil {
			c.Nulls = append(c.Nulls, src.Nulls...)
		} else {
			c.Nulls = append(c.Nulls, make([]bool, src.n)...)
		}
	}
	switch c.Kind {
	case types.KindFloat:
		c.Floats = append(c.Floats, src.Floats...)
	case types.KindString:
		c.Strs = append(c.Strs, src.Strs...)
	case types.KindPath:
		c.Paths = append(c.Paths, src.Paths...)
	default:
		c.Ints = append(c.Ints, src.Ints...)
	}
	c.n += src.n
}

// ColumnFromInts wraps a fully built integer-backed payload slice
// (KindInt, KindBool or KindDate) as a non-NULL column, taking
// ownership of the slice. Used by parallel materialization paths that
// fill disjoint ranges directly.
func ColumnFromInts(kind types.Kind, ints []int64) *Column {
	return &Column{Kind: kind, Ints: ints, n: len(ints)}
}

// ColumnFromFloats wraps a fully built float payload slice as a
// non-NULL KindFloat column, taking ownership of the slice.
func ColumnFromFloats(fs []float64) *Column {
	return &Column{Kind: types.KindFloat, Floats: fs, n: len(fs)}
}

// ColumnFromPaths wraps a fully built path payload slice as a non-NULL
// KindPath column, taking ownership of the slice.
func ColumnFromPaths(ps []*types.Path) *Column {
	return &Column{Kind: types.KindPath, Paths: ps, n: len(ps)}
}

// ConstColumn builds a column of n copies of value v.
func ConstColumn(v types.Value, n int) *Column {
	kind := v.K
	if kind == types.KindNull {
		kind = types.KindInt
	}
	c := NewColumn(kind, n)
	for i := 0; i < n; i++ {
		c.Append(v)
	}
	return c
}

// Validate checks internal consistency; used by tests and debug builds.
func (c *Column) Validate() error {
	want := c.n
	var got int
	switch c.Kind {
	case types.KindFloat:
		got = len(c.Floats)
	case types.KindString:
		got = len(c.Strs)
	case types.KindPath:
		got = len(c.Paths)
	default:
		got = len(c.Ints)
	}
	if got != want {
		return fmt.Errorf("column kind %v: payload len %d != n %d", c.Kind, got, want)
	}
	if c.Nulls != nil && len(c.Nulls) != want {
		return fmt.Errorf("column kind %v: null mask len %d != n %d", c.Kind, len(c.Nulls), want)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
