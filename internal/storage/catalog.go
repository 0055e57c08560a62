package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"graphsql/internal/types"
)

// Table is a named base table: a schema and its column vectors.
type Table struct {
	Name   string
	Schema Schema
	Cols   []*Column
	zones  tableZones
}

// NumRows returns the table cardinality.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Chunk exposes the table storage as a zero-copy chunk.
func (t *Table) Chunk() *Chunk {
	return &Chunk{Schema: t.Schema, Cols: t.Cols}
}

// AppendChunk appends every row of c, whose columns match the table's
// in number and kind (an integer column may fill a DOUBLE one) and are
// of one length. Every column is checked before any is written, so a
// rejected chunk leaves the table as it was. String cells are copied
// into one allocation per column that the table owns, so a table never
// keeps what the cells were cut from (a script, a CSV record) alive.
func (t *Table) AppendChunk(c *Chunk) error {
	if len(c.Cols) != len(t.Schema) {
		return fmt.Errorf("table %s: insert arity %d, want %d", t.Name, len(c.Cols), len(t.Schema))
	}
	n := c.NumRows()
	for j, col := range c.Cols {
		want, got := t.Schema[j].Kind, col.Kind
		if got != want && !(want == types.KindFloat && got == types.KindInt) {
			return fmt.Errorf("table %s column %s: cannot insert %v into %v",
				t.Name, t.Schema[j].Name, got, want)
		}
		if col.Len() != n {
			return fmt.Errorf("table %s column %s: %d rows, want %d", t.Name, t.Schema[j].Name, col.Len(), n)
		}
	}
	for j, col := range c.Cols {
		dst := t.Cols[j]
		switch {
		case col.Kind == types.KindString:
			from := len(dst.Strs)
			dst.Extend(col)
			own(dst.Strs[from:])
		case dst.Kind != col.Kind: // BIGINT into DOUBLE
			fs := make([]float64, n)
			for i, v := range col.Ints {
				fs[i] = float64(v)
			}
			wide := ColumnFromFloats(fs)
			wide.Nulls = col.Nulls
			dst.Extend(wide)
		default:
			dst.Extend(col)
		}
	}
	return nil
}

// own re-points every string of s into one fresh allocation (an empty
// one, which may still point into its source, at the static "").
func own(s []string) {
	size := 0
	for i, v := range s {
		if v == "" {
			s[i] = ""
		}
		size += len(v)
	}
	if size == 0 {
		return
	}
	var b strings.Builder
	b.Grow(size)
	for _, v := range s {
		b.WriteString(v)
	}
	all, off := b.String(), 0
	for i, v := range s {
		if v != "" {
			s[i] = all[off : off+len(v)]
			off += len(v)
		}
	}
}

// Catalog is the collection of base tables. It is safe for concurrent
// readers; writers must be serialized by the caller (the facade DB does
// this with an RWMutex).
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// CreateTable registers a new table. Column names must be unique within
// the table (case-insensitively).
func (c *Catalog) CreateTable(name string, schema Schema) (*Table, error) {
	key := strings.ToLower(name)
	seen := make(map[string]bool, len(schema))
	for i := range schema {
		cn := strings.ToLower(schema[i].Name)
		if seen[cn] {
			return nil, fmt.Errorf("create table %s: duplicate column %q", name, schema[i].Name)
		}
		seen[cn] = true
		// Base table columns are qualified by the table name itself.
		schema[i].Table = name
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema, Cols: make([]*Column, len(schema))}
	for i, m := range schema {
		t.Cols[i] = NewColumn(m.Kind, 0)
	}
	c.tables[key] = t
	return t, nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("table %q does not exist", name)
	}
	delete(c.tables, key)
	return nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns the sorted list of table names.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}
