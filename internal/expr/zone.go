package expr

import (
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Bound is one conjunct of a scan's predicate of the form column op
// constant, read against the zones of the column (storage.Zone) to
// tell whether a sealed window can hold a row the predicate keeps.
type Bound struct {
	// Col is the column of the scanned chunk the conjunct compares.
	Col int
	// mask holds the comparison outcomes (less, equal, greater — see
	// cmpMasks) of column against constant that satisfy the conjunct.
	mask uint8
	val  types.Value
	// float compares as floats (classFloat); intZone says the column
	// is int-backed, so its zone bounds are integers either way.
	float, intZone bool
}

// Bounds returns the bounds pred puts on the rows of chunks shaped
// like in: one per top-level AND conjunct that compares a column with
// a literal or bound parameter, in either operand order. It returns
// none when selecting with pred could fail — pred holds arithmetic, a
// function, IN, LIKE, a CAST other than of a constant or of an int
// column to DOUBLE, an unbound parameter, or a comparison of kinds
// that do not compare — since Select evaluates such an operand over
// every batch, and skipping a window would hide its error.
func Bounds(ctx *Context, pred Expr, in *storage.Chunk) []Bound {
	if !neverFails(ctx, pred, in) {
		return nil
	}
	return appendBounds(nil, ctx, pred, in)
}

// appendBounds appends the bounds of e's top-level AND conjuncts.
func appendBounds(dst []Bound, ctx *Context, e Expr, in *storage.Chunk) []Bound {
	switch t := e.(type) {
	case *Logic:
		if t.And {
			dst = appendBounds(dst, ctx, t.L, in)
			dst = appendBounds(dst, ctx, t.R, in)
		}
	case *Cmp:
		if b, ok := bound(ctx, t, in); ok {
			dst = append(dst, b)
		}
	}
	return dst
}

// bound reads a comparison as a Bound, if it is one.
func bound(ctx *Context, c *Cmp, in *storage.Chunk) (Bound, bool) {
	mask := cmpMasks[c.Op]
	col, other := c.L, c.R
	if _, ok := IsConst(col, ctx); ok {
		col, other, mask = other, col, mirror(mask)
	}
	v, ok := IsConst(other, ctx)
	if !ok {
		return Bound{}, false
	}
	j, kind, ok := zonedColumn(col, in)
	if !ok {
		return Bound{}, false
	}
	b := Bound{Col: j, mask: mask, val: v, intZone: in.Cols[j].Kind != types.KindFloat}
	if v.Null {
		return b, true
	}
	class, err := classOf(kind, v.K)
	if err != nil || class != classInt && class != classFloat {
		return Bound{}, false
	}
	b.float = class == classFloat
	return b, true
}

// zonedColumn resolves the column side of a bound: a reference to a
// column that carries zones, or an int-backed one widened to DOUBLE.
// kind is the kind the comparison sees.
func zonedColumn(e Expr, in *storage.Chunk) (j int, kind types.Kind, ok bool) {
	if c, isCast := e.(*Cast); isCast {
		if j, _, ok = zonedColumn(c.X, in); !ok || !widens(in.Cols[j].Kind, c.To) {
			return 0, 0, false
		}
		return j, c.To, true
	}
	r, isRef := e.(*ColRef)
	if !isRef || r.Idx < 0 || r.Idx >= len(in.Cols) || !storage.Zoned(in.Cols[r.Idx].Kind) {
		return 0, 0, false
	}
	return r.Idx, in.Cols[r.Idx].Kind, true
}

// widens reports whether casting a column of kind from to kind to is
// an identity or an exact-or-rounding widening that cannot fail.
func widens(from, to types.Kind) bool {
	return from == to || to == types.KindFloat && (from == types.KindInt || from == types.KindBool)
}

// Admits reports whether a sealed window summarized by z can hold a
// row satisfying the bound. A NULL constant matches nothing, and
// neither does a window with no non-NULL entry. Otherwise every entry
// x of the window lies between z's bounds, and comparing x with the
// constant is monotone in x, so the outcomes the window can produce
// lie between those of its bounds: the window is admitted when one of
// them satisfies the bound. It may admit a window none of whose rows
// qualify; it never rejects one that has a qualifying row.
func (b Bound) Admits(z storage.Zone) bool {
	if b.val.Null || !z.Valid {
		return false
	}
	var lo, hi uint
	switch {
	case !b.float:
		lo, hi = intIdx(z.MinI, b.val.I), intIdx(z.MaxI, b.val.I)
	case b.intZone:
		y := b.val.AsFloat()
		lo, hi = floatIdx(float64(z.MinI), y), floatIdx(float64(z.MaxI), y)
	default:
		y := b.val.AsFloat()
		lo, hi = floatIdx(z.MinF, y), floatIdx(z.MaxF, y)
	}
	return b.mask>>lo&(1<<(hi-lo+1)-1) != 0
}

// neverFails reports whether Select of predicate e over chunks shaped
// like in cannot return an error: it is built from AND, OR, NOT,
// IS [NOT] NULL and comparisons over columns and constants alone.
func neverFails(ctx *Context, e Expr, in *storage.Chunk) bool {
	switch t := e.(type) {
	case *Logic:
		return neverFails(ctx, t.L, in) && neverFails(ctx, t.R, in)
	case *Not:
		return neverFails(ctx, t.X, in)
	case *IsNull:
		_, ok := leafKind(ctx, t.X, in)
		return ok
	case *Cmp:
		lk, lok := leafKind(ctx, t.L, in)
		rk, rok := leafKind(ctx, t.R, in)
		if !lok || !rok {
			return false
		}
		_, err := classOf(lk, rk)
		return err == nil
	}
	// A bare operand is read as a boolean: any constant, or an
	// int-backed column.
	if _, ok := IsConst(e, ctx); ok {
		return true
	}
	k, ok := leafKind(ctx, e, in)
	return ok && k != types.KindFloat && storage.Zoned(k)
}

// leafKind is the kind of an operand that evaluates without failing —
// a constant, a column, or an int-backed column widened to DOUBLE — as
// the kernels see it.
func leafKind(ctx *Context, e Expr, in *storage.Chunk) (types.Kind, bool) {
	if v, ok := IsConst(e, ctx); ok {
		return v.K, true
	}
	switch t := e.(type) {
	case *ColRef:
		if t.Idx >= 0 && t.Idx < len(in.Cols) {
			return in.Cols[t.Idx].Kind, true
		}
	case *Cast:
		if k, ok := leafKind(ctx, t.X, in); ok && widens(k, t.To) {
			return t.To, true
		}
	}
	return 0, false
}
