package storage

import (
	"sync"
	"weak"

	"graphsql/internal/types"
)

// ZoneRows is the size of a sealed window: a base table's rows
// [w·ZoneRows, (w+1)·ZoneRows) form window w once the table holds all
// of them. Only sealed windows carry zones; the partial window at the
// end of a table is always scanned. It is a constant of the storage
// layout, independent of the executor's batch size.
const ZoneRows = 1024

// Zone summarizes one sealed window of an int-backed (BIGINT, DATE,
// BOOL) or DOUBLE column: whether it holds a non-NULL entry and, if it
// does, the least and greatest of them. DOUBLE bounds follow
// types.Compare's total order: NaN is greater than every other value
// and -0.0 equals 0.0.
type Zone struct {
	// Valid reports whether the window holds a non-NULL entry; the
	// bounds are meaningful only when it does.
	Valid bool
	// MinI and MaxI bound an int-backed column.
	MinI, MaxI int64
	// MinF and MaxF bound a DOUBLE column.
	MinF, MaxF float64
}

// Zoned reports whether columns of kind k carry zones.
func Zoned(k types.Kind) bool {
	switch k {
	case types.KindInt, types.KindDate, types.KindBool, types.KindFloat:
		return true
	}
	return false
}

// tableZones caches the zones of a table's columns, computed lazily by
// Table.Zones. Each entry names the column it was computed from
// weakly, so a column that DELETE or a truncate swapped out neither
// matches nor stays alive for its entry's sake.
type tableZones struct {
	mu   sync.Mutex
	cols []columnZones
}

type columnZones struct {
	col   weak.Pointer[Column]
	zones []Zone
}

// Zones returns the zones of the sealed windows of column j as view
// holds them. view must be a prefix of the live column t.Cols[j] taken
// under the same hold of the caller's lock (a scan's Open view): the
// engine only appends to a column or swaps it whole, so the sealed
// windows of the live column are the view's and never change. Zones
// are computed on first use and extended as windows seal; the result
// is shared and must not be modified.
func (t *Table) Zones(j int, view *Column) []Zone {
	sealed := view.Len() / ZoneRows
	if sealed == 0 || !Zoned(view.Kind) {
		return nil
	}
	live := weak.Make(t.Cols[j])
	z := &t.zones
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.cols == nil {
		z.cols = make([]columnZones, len(t.Cols))
	}
	cz := &z.cols[j]
	if cz.col != live {
		// A fresh slice: scans still hold the old one.
		*cz = columnZones{col: live}
	}
	for w := len(cz.zones); w < sealed; w++ {
		cz.zones = append(cz.zones, view.zone(w*ZoneRows, (w+1)*ZoneRows))
	}
	return cz.zones[:sealed:sealed]
}

// zone summarizes entries [lo, hi) of an int-backed or DOUBLE column.
func (c *Column) zone(lo, hi int) Zone {
	var z Zone
	if c.Kind == types.KindFloat {
		for i := lo; i < hi; i++ {
			if c.IsNull(i) {
				continue
			}
			x := c.Floats[i]
			switch {
			case !z.Valid:
				z = Zone{Valid: true, MinF: x, MaxF: x}
			case floatLess(x, z.MinF):
				z.MinF = x
			case floatLess(z.MaxF, x):
				z.MaxF = x
			}
		}
		return z
	}
	for i := lo; i < hi; i++ {
		if c.IsNull(i) {
			continue
		}
		x := c.Ints[i]
		switch {
		case !z.Valid:
			z = Zone{Valid: true, MinI: x, MaxI: x}
		case x < z.MinI:
			z.MinI = x
		case x > z.MaxI:
			z.MaxI = x
		}
	}
	return z
}

// floatLess is x < y in types.Compare's order: a NaN y is greater than
// every non-NaN x.
func floatLess(x, y float64) bool { return x < y || y != y && x == x }
