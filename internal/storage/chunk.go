package storage

import (
	"fmt"
	"strings"

	"graphsql/internal/types"
)

// ColMeta describes one column of a schema: its (optionally qualified)
// name and kind.
type ColMeta struct {
	// Table is the binding qualifier (table name or alias); may be "".
	Table string
	// Name is the column name.
	Name string
	// Kind is the column type.
	Kind types.Kind
}

// QualifiedName renders table.name or just name.
func (m ColMeta) QualifiedName() string {
	if m.Table == "" {
		return m.Name
	}
	return m.Table + "." + m.Name
}

// Schema is an ordered list of column descriptors.
type Schema []ColMeta

// String renders the schema for error messages.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, m := range s {
		parts[i] = fmt.Sprintf("%s %v", m.QualifiedName(), m.Kind)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Chunk is a set of rows — an operator's batch or a materialized
// result: a schema plus one column vector per schema entry, all of
// equal length.
type Chunk struct {
	Schema Schema
	Cols   []*Column
}

// NewChunk returns an empty chunk with freshly allocated columns.
func NewChunk(schema Schema) *Chunk {
	cols := make([]*Column, len(schema))
	for i, m := range schema {
		cols[i] = NewColumn(m.Kind, 0)
	}
	return &Chunk{Schema: schema, Cols: cols}
}

// NumRows returns the row count.
func (c *Chunk) NumRows() int {
	if len(c.Cols) == 0 {
		return 0
	}
	return c.Cols[0].Len()
}

// NumCols returns the column count.
func (c *Chunk) NumCols() int { return len(c.Cols) }

// Row materializes row i as boxed values (used by row-oriented
// consumers such as the client API and tests).
func (c *Chunk) Row(i int) []types.Value {
	out := make([]types.Value, len(c.Cols))
	for j, col := range c.Cols {
		out[j] = col.Get(i)
	}
	return out
}

// AppendRow appends a boxed row; the row length must match the schema.
func (c *Chunk) AppendRow(row []types.Value) {
	for j, v := range row {
		c.Cols[j].Append(v)
	}
}

// Gather returns a new chunk containing the given rows of c, in order,
// with each column's copies partitioned over up to workers goroutines;
// identical output at every worker count (see Column.Gather).
func (c *Chunk) Gather(rows []int, workers int) *Chunk {
	out := &Chunk{Schema: c.Schema, Cols: make([]*Column, len(c.Cols))}
	for j, col := range c.Cols {
		out.Cols[j] = col.Gather(rows, workers)
	}
	return out
}

// GatherInto is Gather on one goroutine into dst, a chunk an earlier
// GatherInto returned (nil the first time): its columns and their
// arrays are overwritten and reused, so a batch-at-a-time caller
// gathers without allocating once the arrays are large enough. It
// returns dst.
func (c *Chunk) GatherInto(dst *Chunk, rows []int) *Chunk {
	dst = dst.reshape(c)
	for j, col := range c.Cols {
		col.gatherInto(dst.Cols[j], rows, 1)
	}
	return dst
}

// Slice returns a zero-copy view of rows [lo, hi); see Column.Slice.
func (c *Chunk) Slice(lo, hi int) *Chunk {
	return c.SliceInto(nil, lo, hi)
}

// SliceInto is Slice into dst, a chunk an earlier SliceInto returned
// (nil the first time): its column headers are re-pointed at rows
// [lo, hi) of c instead of allocated. It returns dst.
func (c *Chunk) SliceInto(dst *Chunk, lo, hi int) *Chunk {
	dst = dst.reshape(c)
	for j, col := range c.Cols {
		dst.Cols[j].view(col, lo, hi)
	}
	return dst
}

// reshape returns c, or a new chunk when c is nil, with src's schema
// and one column header per column of src, allocating only the headers
// c lacks.
func (c *Chunk) reshape(src *Chunk) *Chunk {
	if c == nil {
		c = new(Chunk)
	}
	c.Schema = src.Schema
	if len(c.Cols) != len(src.Cols) {
		c.Cols = make([]*Column, len(src.Cols))
		cols := make([]Column, len(src.Cols))
		for j := range c.Cols {
			c.Cols[j] = &cols[j]
		}
	}
	return c
}

// Extend appends every row of o, which must share c's column kinds, to
// c.
func (c *Chunk) Extend(o *Chunk) {
	for j, col := range c.Cols {
		col.Extend(o.Cols[j])
	}
}

// ColIndex locates a column by optional qualifier and name
// (case-insensitive). It returns -1 if absent and -2 if ambiguous.
func (s Schema) ColIndex(table, name string) int {
	found := -1
	for i, m := range s {
		if !strings.EqualFold(m.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(m.Table, table) {
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// Validate checks that all columns have equal length and pass their own
// validation.
func (c *Chunk) Validate() error {
	if len(c.Cols) != len(c.Schema) {
		return fmt.Errorf("chunk: %d cols vs %d schema entries", len(c.Cols), len(c.Schema))
	}
	n := -1
	for i, col := range c.Cols {
		if err := col.Validate(); err != nil {
			return fmt.Errorf("col %d (%s): %w", i, c.Schema[i].QualifiedName(), err)
		}
		if n == -1 {
			n = col.Len()
		} else if col.Len() != n {
			return fmt.Errorf("col %d (%s): len %d != %d", i, c.Schema[i].QualifiedName(), col.Len(), n)
		}
	}
	return nil
}

// String renders the chunk as an aligned text table (for the shell and
// tests). Long chunks are rendered in full; callers truncate.
func (c *Chunk) String() string {
	var b strings.Builder
	headers := make([]string, len(c.Schema))
	widths := make([]int, len(c.Schema))
	for j, m := range c.Schema {
		headers[j] = m.Name
		widths[j] = len(m.Name)
	}
	n := c.NumRows()
	cells := make([][]string, n)
	for i := 0; i < n; i++ {
		cells[i] = make([]string, len(c.Cols))
		for j, col := range c.Cols {
			s := col.Get(i).String()
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	writeRow := func(row []string) {
		for j, s := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(s)
			for k := len(s); k < widths[j]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for j := range headers {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[j]))
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		writeRow(cells[i])
	}
	return b.String()
}
