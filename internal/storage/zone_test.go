package storage

import (
	"math"
	"testing"

	"graphsql/internal/types"
)

// zoneTable is a one-column table of the given kind.
func zoneTable(t *testing.T, k types.Kind) *Table {
	t.Helper()
	tbl, err := NewCatalog().CreateTable("t", Schema{{Name: "x", Kind: k}})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// view is what a scan takes at Open: a length-clamped prefix.
func view(tbl *Table) *Column { return tbl.Cols[0].Slice(0, tbl.NumRows()) }

func TestZonesOfFloatsFollowTheTotalOrder(t *testing.T) {
	tbl := zoneTable(t, types.KindFloat)
	col := tbl.Cols[0]
	// Window 0: a NaN among finite values, so NaN is the maximum;
	// window 1: only zeros, -0.0 first; window 2: all NULL; window 3:
	// the infinities around a NULL run.
	for i := 0; i < ZoneRows; i++ {
		if i == 500 {
			col.AppendFloat(math.NaN())
		} else {
			col.AppendFloat(float64(i) - 100)
		}
	}
	col.AppendFloat(math.Copysign(0, -1))
	for i := 1; i < ZoneRows; i++ {
		col.AppendFloat(0)
	}
	for i := 0; i < ZoneRows; i++ {
		col.AppendNull()
	}
	for i := 0; i < ZoneRows; i++ {
		switch {
		case i == 0:
			col.AppendFloat(math.Inf(-1))
		case i == ZoneRows-1:
			col.AppendFloat(math.Inf(1))
		case i < 10:
			col.AppendNull()
		default:
			col.AppendFloat(1.5)
		}
	}
	col.AppendFloat(math.Inf(1)) // the partial tail has no zone
	zones := tbl.Zones(0, view(tbl))
	if len(zones) != 4 {
		t.Fatalf("%d zones for 4 sealed windows and a partial one", len(zones))
	}
	if z := zones[0]; !z.Valid || z.MinF != -100 || !math.IsNaN(z.MaxF) {
		t.Errorf("window with a NaN: %+v, want min -100, max NaN", z)
	}
	if z := zones[1]; !z.Valid || z.MinF != 0 || z.MaxF != 0 {
		t.Errorf("window of zeros: %+v", z)
	}
	if zones[2].Valid {
		t.Errorf("all-NULL window: %+v, want no non-NULL value", zones[2])
	}
	if z := zones[3]; !z.Valid || !math.IsInf(z.MinF, -1) || !math.IsInf(z.MaxF, 1) {
		t.Errorf("window of infinities: %+v", z)
	}
}

func TestZonesExtendAsWindowsSealAndDropWithTheColumn(t *testing.T) {
	tbl := zoneTable(t, types.KindInt)
	appendInts := func(from, n int) {
		for i := from; i < from+n; i++ {
			tbl.Cols[0].AppendInt(int64(i))
		}
	}
	appendInts(0, ZoneRows+7)
	first := tbl.Zones(0, view(tbl))
	if len(first) != 1 || first[0] != (Zone{Valid: true, MinI: 0, MaxI: ZoneRows - 1}) {
		t.Fatalf("zones = %+v", first)
	}
	// A view taken before the appends keeps seeing its own windows.
	old := view(tbl)
	appendInts(ZoneRows+7, 2*ZoneRows)
	grown := tbl.Zones(0, view(tbl))
	if len(grown) != 3 || grown[0] != first[0] || grown[2] != (Zone{Valid: true, MinI: 2 * ZoneRows, MaxI: 3*ZoneRows - 1}) {
		t.Fatalf("grown zones = %+v", grown)
	}
	if again := tbl.Zones(0, old); len(again) != 1 || again[0] != first[0] {
		t.Fatalf("zones of the older view = %+v", again)
	}

	// DELETE and truncate swap the column; its zones go with it.
	tbl.Cols[0] = NewColumn(types.KindInt, 0)
	for i := 0; i < ZoneRows; i++ {
		tbl.Cols[0].AppendInt(-int64(i))
	}
	if z := tbl.Zones(0, view(tbl)); len(z) != 1 || z[0] != (Zone{Valid: true, MinI: 1 - ZoneRows, MaxI: 0}) {
		t.Fatalf("zones after the swap = %+v", z)
	}
	if first[0] != (Zone{Valid: true, MinI: 0, MaxI: ZoneRows - 1}) {
		t.Fatal("the swap rewrote zones a scan still holds")
	}
}

func TestOnlyNumericColumnsCarryZones(t *testing.T) {
	tbl := zoneTable(t, types.KindString)
	for i := 0; i < ZoneRows; i++ {
		tbl.Cols[0].AppendString("a")
	}
	if z := tbl.Zones(0, view(tbl)); z != nil {
		t.Fatalf("string column zones = %+v", z)
	}
}
