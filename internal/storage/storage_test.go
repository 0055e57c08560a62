package storage

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"graphsql/internal/types"
)

func TestColumnAppendAndGet(t *testing.T) {
	c := NewColumn(types.KindInt, 0)
	c.AppendInt(1)
	c.Append(types.NewInt(2))
	c.AppendNull()
	c.AppendInt(4)
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Get(0).I != 1 || c.Get(1).I != 2 || c.Get(3).I != 4 {
		t.Fatal("values wrong")
	}
	if !c.Get(2).Null || !c.IsNull(2) || c.IsNull(3) {
		t.Fatal("null mask wrong")
	}
	if !c.HasNulls() {
		t.Fatal("HasNulls must be true")
	}
}

func TestColumnNullMaskLateMaterialization(t *testing.T) {
	c := NewColumn(types.KindString, 0)
	c.AppendString("a")
	c.AppendString("b")
	if c.Nulls != nil {
		t.Fatal("null mask must be lazy")
	}
	c.AppendNull()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.IsNull(0) || c.IsNull(1) || !c.IsNull(2) {
		t.Fatal("late null mask is wrong")
	}
}

func TestColumnKinds(t *testing.T) {
	f := NewColumn(types.KindFloat, 0)
	f.AppendFloat(1.5)
	f.Append(types.NewInt(2)) // ints widen into float columns
	if f.Get(0).F != 1.5 || f.Get(1).F != 2.0 {
		t.Fatal("float column broken")
	}
	b := NewColumn(types.KindBool, 0)
	b.Append(types.NewBool(true))
	if !b.Get(0).Bool() {
		t.Fatal("bool column broken")
	}
	d := NewColumn(types.KindDate, 0)
	d.Append(types.NewDate(100))
	if d.Get(0).K != types.KindDate || d.Get(0).I != 100 {
		t.Fatal("date column broken")
	}
	p := NewColumn(types.KindPath, 0)
	p.AppendPath(&types.Path{})
	if p.Get(0).P == nil {
		t.Fatal("path column broken")
	}
}

func TestColumnGather(t *testing.T) {
	c := NewColumn(types.KindInt, 0)
	for i := 0; i < 10; i++ {
		if i == 5 {
			c.AppendNull()
		} else {
			c.AppendInt(int64(i))
		}
	}
	g := c.Gather([]int{9, 5, 0}, 1)
	if g.Len() != 3 || g.Get(0).I != 9 || !g.IsNull(1) || g.Get(2).I != 0 {
		t.Fatalf("gather wrong: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.Slice(2, 4)
	if s.Len() != 2 || s.Get(0).I != 2 || s.Get(1).I != 3 {
		t.Fatal("slice wrong")
	}
}

func TestPropertyGatherPreservesValues(t *testing.T) {
	f := func(vals []int64, pick []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		c := NewColumn(types.KindInt, 0)
		for _, v := range vals {
			c.AppendInt(v)
		}
		rows := make([]int, len(pick))
		for i, p := range pick {
			rows[i] = int(p) % len(vals)
		}
		g := c.Gather(rows, 1)
		for i, r := range rows {
			if g.Get(i).I != vals[r] {
				return false
			}
		}
		return g.Len() == len(rows)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstColumn(t *testing.T) {
	c := ConstColumn(types.NewString("x"), 3)
	if c.Len() != 3 || c.Get(2).S != "x" {
		t.Fatal("const column broken")
	}
	n := ConstColumn(types.NewNull(types.KindNull), 2)
	if !n.IsNull(0) || !n.IsNull(1) || n.Kind != types.KindInt {
		t.Fatal("null const column broken")
	}
	// The typed fill holds what appending the value n times holds.
	for _, v := range []types.Value{
		types.NewNull(types.KindNull), types.NewNull(types.KindFloat), types.NewInt(3), types.NewFloat(2.5),
		types.NewString("s"), types.NewBool(true), types.NewDate(7), types.NewPath(&types.Path{}),
	} {
		for _, rows := range []int{0, 1, 5} {
			kind := v.K
			if kind == types.KindNull {
				kind = types.KindInt
			}
			want := NewColumn(kind, rows)
			for i := 0; i < rows; i++ {
				want.Append(v)
			}
			got := ConstColumn(v, rows)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ConstColumn(%v, %d) = %+v, want %+v", v, rows, got, want)
			}
		}
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := Schema{
		{Table: "p1", Name: "id", Kind: types.KindInt},
		{Table: "p2", Name: "id", Kind: types.KindInt},
		{Table: "p1", Name: "name", Kind: types.KindString},
	}
	if got := s.ColIndex("p1", "id"); got != 0 {
		t.Fatalf("p1.id = %d", got)
	}
	if got := s.ColIndex("p2", "ID"); got != 1 {
		t.Fatalf("p2.ID = %d (case-insensitive lookup)", got)
	}
	if got := s.ColIndex("", "id"); got != -2 {
		t.Fatalf("bare id must be ambiguous, got %d", got)
	}
	if got := s.ColIndex("", "name"); got != 2 {
		t.Fatalf("bare name = %d", got)
	}
	if got := s.ColIndex("", "missing"); got != -1 {
		t.Fatalf("missing = %d", got)
	}
}

func TestChunkBasics(t *testing.T) {
	sch := Schema{
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindString},
	}
	c := NewChunk(sch)
	c.AppendRow([]types.Value{types.NewInt(1), types.NewString("x")})
	c.AppendRow([]types.Value{types.NewInt(2), types.NewString("y")})
	if c.NumRows() != 2 || c.NumCols() != 2 {
		t.Fatalf("dims wrong: %d x %d", c.NumRows(), c.NumCols())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	row := c.Row(1)
	if row[0].I != 2 || row[1].S != "y" {
		t.Fatal("row materialization wrong")
	}
	out := c.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "y") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	tbl, err := cat.CreateTable("t", Schema{{Name: "x", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("T", Schema{{Name: "x", Kind: types.KindInt}}); err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
	if _, err := cat.CreateTable("u", Schema{
		{Name: "a", Kind: types.KindInt}, {Name: "A", Kind: types.KindInt},
	}); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if err := tbl.AppendChunk(rowChunk(types.NewInt(5))); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendChunk(rowChunk(types.NewString("no"))); err == nil {
		t.Fatal("kind mismatch must fail")
	}
	if err := tbl.AppendChunk(rowChunk(types.NewInt(1), types.NewInt(2))); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	got, ok := cat.Table("T")
	if !ok || got != tbl {
		t.Fatal("lookup is case-insensitive")
	}
	names := cat.TableNames()
	if len(names) != 1 || names[0] != "t" {
		t.Fatalf("names = %v", names)
	}
	if err := cat.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := cat.DropTable("t"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestTableChunkIsZeroCopy(t *testing.T) {
	cat := NewCatalog()
	tbl, _ := cat.CreateTable("t", Schema{{Name: "x", Kind: types.KindInt}})
	_ = tbl.AppendChunk(rowChunk(types.NewInt(1)))
	c := tbl.Chunk()
	if c.Cols[0] != tbl.Cols[0] {
		t.Fatal("chunk must share the table's columns")
	}
	if c.Schema[0].Table != "t" {
		t.Fatalf("base table columns are self-qualified, got %q", c.Schema[0].Table)
	}
}

func TestFloatIntMixedInsertIntoFloatColumn(t *testing.T) {
	cat := NewCatalog()
	tbl, _ := cat.CreateTable("t", Schema{{Name: "x", Kind: types.KindFloat}})
	if err := tbl.AppendChunk(rowChunk(types.NewInt(3))); err != nil {
		t.Fatal(err) // ints are accepted into DOUBLE columns
	}
	if tbl.Cols[0].Get(0).F != 3.0 {
		t.Fatal("int was not widened")
	}
	nulls := rowChunk(types.NewInt(4))
	nulls.Cols[0].AppendNull()
	if err := tbl.AppendChunk(nulls); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Cols[0]; got.Len() != 3 || got.Get(1).F != 4 || !got.IsNull(2) {
		t.Fatalf("widened column = %v, %v, %v", got.Get(0), got.Get(1), got.Get(2))
	}
}

// rowChunk is a one-row chunk of the given values.
func rowChunk(vals ...types.Value) *Chunk {
	c := &Chunk{Cols: make([]*Column, len(vals))}
	for j, v := range vals {
		c.Cols[j] = NewColumn(v.K, 1)
		c.Cols[j].Append(v)
	}
	return c
}

// TestAppendChunkChecksEveryColumnFirst: a chunk whose second column
// cannot go into the table is refused before the first is written, so
// the table is never ragged.
func TestAppendChunkChecksEveryColumnFirst(t *testing.T) {
	cat := NewCatalog()
	tbl, _ := cat.CreateTable("t", Schema{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}})
	if err := tbl.AppendChunk(rowChunk(types.NewInt(1), types.NewInt(2))); err != nil {
		t.Fatal(err)
	}
	bad := []*Chunk{
		rowChunk(types.NewInt(3), types.NewString("x")),                                   // wrong kind
		{Cols: []*Column{NewColumn(types.KindInt, 0), rowChunk(types.NewInt(4)).Cols[0]}}, // lengths differ
	}
	bad[0].Cols[0].AppendInt(5) // also ragged itself
	for i, c := range bad {
		if err := tbl.AppendChunk(c); err == nil {
			t.Fatalf("chunk %d: appended", i)
		}
		for j, col := range tbl.Cols {
			if col.Len() != 1 {
				t.Fatalf("chunk %d: column %d has %d rows after a refused append, want 1", i, j, col.Len())
			}
		}
	}
}

// TestAppendChunkOwnsItsStrings: the appended strings share no memory
// with the chunk's.
func TestAppendChunkOwnsItsStrings(t *testing.T) {
	cat := NewCatalog()
	tbl, _ := cat.CreateTable("t", Schema{{Name: "s", Kind: types.KindString}})
	src := "alpha,beta,"
	c := &Chunk{Cols: []*Column{NewColumn(types.KindString, 3)}}
	c.Cols[0].AppendString(src[0:5])
	c.Cols[0].AppendNull()
	c.Cols[0].AppendString(src[6:10])
	c.Cols[0].AppendString(src[11:11])
	if err := tbl.AppendChunk(c); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for i, s := range tbl.Cols[0].Strs {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p <= lo+uintptr(len(src)) {
			t.Fatalf("cell %d (%q) points into the source", i, s)
		}
	}
	if got := tbl.Cols[0]; got.Get(0).S != "alpha" || !got.IsNull(1) || got.Get(2).S != "beta" || got.Get(3).S != "" {
		t.Fatalf("strings = %q", got.Strs)
	}
}
