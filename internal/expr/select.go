package expr

import (
	"fmt"
	"strings"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// Select returns the rows of in for which pred is TRUE, as ascending
// row indices. sel is scratch the result is written into, grown if it
// is shorter than the chunk, so a caller filtering batch after batch
// reuses one buffer. NULL and FALSE rows are not selected (SQL
// three-valued logic).
//
// A selection starts as every row and is narrowed in place: AND hands
// its right operand only the rows its left one kept, OR hands its right
// operand only the rows its left one did not keep and unions the two,
// NOT and IS [NOT] NULL select directly, and comparisons, IN and LIKE
// run typed kernels over the candidate rows. The value operands of
// those kernels — anything but a column reference, a literal or a
// bound parameter — are still evaluated over the whole chunk, so an
// expression that can fail (division, CAST, a function) fails on the
// same rows whatever selection it is reached with.
func Select(ctx *Context, pred Expr, in *storage.Chunk, sel []int) ([]int, error) {
	n := in.NumRows()
	if cap(sel) < n {
		sel = make([]int, n)
	}
	sel = sel[:n]
	for i := range sel {
		sel[i] = i
	}
	return selectRows(ctx, pred, in, sel, true)
}

// selectRows narrows cand, in place, to the rows where e is exactly
// want (never NULL). It evaluates every operand even when cand is
// empty: an operand that can fail must fail as it would over the
// whole batch.
func selectRows(ctx *Context, e Expr, in *storage.Chunk, cand []int, want bool) ([]int, error) {
	switch t := e.(type) {
	case *Logic:
		if t.And != want {
			// OR for TRUE, AND for FALSE: either operand decides.
			return selectAny(cand, 2, func(j int, rows []int) ([]int, error) {
				return selectRows(ctx, [2]Expr{t.L, t.R}[j], in, rows, want)
			})
		}
		// AND for TRUE, OR for FALSE: both operands must agree.
		var err error
		if cand, err = selectRows(ctx, t.L, in, cand, want); err != nil {
			return nil, err
		}
		return selectRows(ctx, t.R, in, cand, want)
	case *Not:
		return selectRows(ctx, t.X, in, cand, !want)
	case *Cmp:
		l, err := evalOperand(ctx, t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := evalOperand(ctx, t.R, in)
		if err != nil {
			return nil, err
		}
		mask := cmpMasks[t.Op]
		if !want {
			mask ^= maskAll
		}
		return selectCmp(mask, l, r, cand)
	case *IsNull:
		x, err := evalOperand(ctx, t.X, in)
		if err != nil {
			return nil, err
		}
		return selectNull(x, cand, want != t.Not), nil
	case *InList:
		return selectIn(ctx, t, in, cand, want != t.Not)
	case *Like:
		x, err := evalOperand(ctx, t.X, in)
		if err != nil {
			return nil, err
		}
		p, err := evalOperand(ctx, t.Pattern, in)
		if err != nil {
			return nil, err
		}
		return selectLike(x, p, cand, want != t.Not), nil
	}
	x, err := evalOperand(ctx, e, in)
	if err != nil {
		return nil, err
	}
	return selectBool(x, cand, want), nil
}

// selectAny narrows cand to the rows at least one of k selections
// keeps: selection j sees only the rows no earlier one kept.
func selectAny(cand []int, k int, sel func(j int, rows []int) ([]int, error)) ([]int, error) {
	rest := append([]int(nil), cand...)
	buf := make([]int, 0, len(cand))
	for j := 0; j < k; j++ {
		hits, err := sel(j, append(buf[:0], rest...))
		if err != nil {
			return nil, err
		}
		rest = minus(rest, rest, hits)
	}
	return minus(cand, cand, rest), nil
}

// minus writes the rows of a that are not in b into dst and returns
// it; a and b ascend, and dst may be a itself.
func minus(dst, a, b []int) []int {
	dst = dst[:0]
	j := 0
	for _, r := range a {
		for j < len(b) && b[j] < r {
			j++
		}
		if j < len(b) && b[j] == r {
			continue
		}
		dst = append(dst, r)
	}
	return dst
}

// Complement returns the rows 0..n-1 that the ascending selection sel
// lacks: the rows where a predicate is FALSE or NULL.
func Complement(sel []int, n int) []int {
	out := make([]int, 0, n-len(sel))
	j := 0
	for i := 0; i < n; i++ {
		if j < len(sel) && sel[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}

// operand is an evaluated operand of a kernel: a column, or — for a
// literal or a bound parameter — the scalar itself, read once.
type operand struct {
	col *storage.Column // nil for a scalar
	val types.Value
}

// evalOperand evaluates e as a kernel operand.
func evalOperand(ctx *Context, e Expr, in *storage.Chunk) (operand, error) {
	if v, ok := IsConst(e, ctx); ok {
		return operand{val: v}, nil
	}
	c, err := e.Eval(ctx, in)
	return operand{col: c}, err
}

// null reports whether the operand is a NULL scalar.
func (o operand) null() bool { return o.col == nil && o.val.Null }

// nullAt reports whether the operand is NULL at row i.
func (o operand) nullAt(i int) bool {
	if o.col == nil {
		return o.val.Null
	}
	return o.col.IsNull(i)
}

// strAt returns a string operand's entry at row i.
func (o operand) strAt(i int) string {
	if o.col == nil {
		return o.val.S
	}
	return o.col.Strs[i]
}

// A comparison's outcome is an index — 0 less, 1 equal, 2 greater —
// into a 3-bit mask of the outcomes that satisfy the operator, so one
// kernel loop serves every operator, its negation (the mask's
// complement, exact because the order is total) and its mirror image
// (swapped operands, the less and greater bits exchanged).
const maskAll uint8 = 0b111

var cmpMasks = [...]uint8{
	CmpEq: 0b010,
	CmpNe: 0b101,
	CmpLt: 0b001,
	CmpLe: 0b011,
	CmpGt: 0b100,
	CmpGe: 0b110,
}

// mirror is the mask of the operator with its operands swapped.
func mirror(m uint8) uint8 { return m&0b010 | m>>2&1 | m&1<<2 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// intIdx and floatIdx are types.Compare as an outcome index. Floats
// follow its total order: -0.0 equals 0.0, and NaN equals NaN and is
// greater than every other value.
func intIdx(x, y int64) uint { return uint(1 + b2i(x > y) - b2i(x < y)) }

func floatIdx(x, y float64) uint {
	return uint(1 + b2i(x > y) - b2i(x < y) + b2i(x != x) - b2i(y != y))
}

func strIdx(x, y string) uint { return uint(1 + strings.Compare(x, y)) }

// cmpClass is the payload two operand kinds are compared on, chosen as
// types.Compare chooses it.
type cmpClass uint8

const (
	classInt   cmpClass = iota // bool, int, date: the Ints payload
	classFloat                 // either side DOUBLE: floats, ints widened
	classString
	classPath  // paths carry no order: every pair compares equal
	classNulls // an untyped NULL operand: nothing compares
)

func classOf(a, b types.Kind) (cmpClass, error) {
	intBacked := func(k types.Kind) bool {
		return k == types.KindInt || k == types.KindBool || k == types.KindDate
	}
	switch {
	case a == types.KindNull || b == types.KindNull:
		return classNulls, nil
	case (a == types.KindFloat || intBacked(a)) && (b == types.KindFloat || intBacked(b)):
		if a == types.KindFloat || b == types.KindFloat {
			return classFloat, nil
		}
		return classInt, nil
	case a == types.KindString && b == types.KindString:
		return classString, nil
	case a == types.KindPath && b == types.KindPath:
		return classPath, nil
	}
	return 0, fmt.Errorf("internal: cannot compare %v with %v", a, b)
}

// floatsOf returns a column's entries as floats, widening an
// int-backed column (only reachable when a caller skipped the binder's
// promotion).
func floatsOf(c *storage.Column) []float64 {
	if c.Kind == types.KindFloat {
		return c.Floats
	}
	fs := make([]float64, len(c.Ints))
	for i, x := range c.Ints {
		fs[i] = float64(x)
	}
	return fs
}

// selectCmp narrows cand to the rows where l compared with r has an
// outcome in mask; a NULL on either side selects nothing.
func selectCmp(mask uint8, l, r operand, cand []int) ([]int, error) {
	if l.col == nil && r.col == nil {
		if l.val.Null || r.val.Null || mask>>(1+types.Compare(l.val, r.val))&1 == 0 {
			return cand[:0], nil
		}
		return cand, nil
	}
	if l.col == nil {
		l, r, mask = r, l, mirror(mask)
	}
	var err error
	if r.col == nil {
		cand, err = cmpColScalar(mask, l.col, r.val, cand)
	} else {
		cand, err = cmpColCol(mask, l.col, r.col, cand)
		cand = dropNulls(cand, r.col.Nulls)
	}
	return dropNulls(cand, l.col.Nulls), err
}

// cmpColScalar is the column × scalar kernel.
func cmpColScalar(mask uint8, c *storage.Column, v types.Value, cand []int) ([]int, error) {
	if v.Null {
		return cand[:0], nil
	}
	class, err := classOf(c.Kind, v.K)
	if err != nil {
		return nil, err
	}
	k := 0
	switch class {
	case classInt:
		return cmpScalarLoop(mask, c.Ints, v.I, cand), nil
	case classFloat:
		xs, y := floatsOf(c), v.AsFloat()
		if y == y {
			return cmpScalarLoop(mask, xs, y, cand), nil
		}
		for _, i := range cand {
			cand[k] = i
			k += int(mask >> floatIdx(xs[i], y) & 1)
		}
	case classString:
		xs, y := c.Strs, v.S
		for _, i := range cand {
			cand[k] = i
			k += int(mask >> strIdx(xs[i], y) & 1)
		}
	case classPath:
		k = len(cand) * int(mask>>1&1)
	}
	return cand[:k], nil
}

// cmpScalarLoop is the column × scalar kernel of the int-backed and
// float classes: one branchless loop per operator instead of an outcome
// index per row. y must not be NaN. A NaN entry then folds into the
// loops with one comparison: it is greater than y, so it satisfies
// x > y || x != x (written without a branch) and !(x < y), and none
// of x < y, x <= y and x == y. For int64 the extra comparison is
// constant and compiles away. mask is one of the six operator masks:
// negation and mirroring map that set onto itself, and the masks of a
// path's IN (nothing or everything) take cmpColScalar's path branch.
func cmpScalarLoop[T int64 | float64](mask uint8, xs []T, y T, cand []int) []int {
	k := 0
	switch mask {
	case cmpMasks[CmpLt]:
		for _, i := range cand {
			cand[k] = i
			k += b2i(xs[i] < y)
		}
	case cmpMasks[CmpLe]:
		for _, i := range cand {
			cand[k] = i
			k += b2i(xs[i] <= y)
		}
	case cmpMasks[CmpEq]:
		for _, i := range cand {
			cand[k] = i
			k += b2i(xs[i] == y)
		}
	case cmpMasks[CmpNe]:
		for _, i := range cand {
			cand[k] = i
			k += b2i(xs[i] != y)
		}
	case cmpMasks[CmpGt]:
		for _, i := range cand {
			x := xs[i]
			cand[k] = i
			k += b2i(x > y) | b2i(x != x)
		}
	case cmpMasks[CmpGe]:
		for _, i := range cand {
			cand[k] = i
			k += b2i(!(xs[i] < y))
		}
	}
	return cand[:k]
}

// cmpColCol is the column × column kernel.
func cmpColCol(mask uint8, l, r *storage.Column, cand []int) ([]int, error) {
	class, err := classOf(l.Kind, r.Kind)
	if err != nil {
		return nil, err
	}
	k := 0
	switch class {
	case classInt:
		xs, ys := l.Ints, r.Ints
		for _, i := range cand {
			cand[k] = i
			k += int(mask >> intIdx(xs[i], ys[i]) & 1)
		}
	case classFloat:
		xs, ys := floatsOf(l), floatsOf(r)
		for _, i := range cand {
			cand[k] = i
			k += int(mask >> floatIdx(xs[i], ys[i]) & 1)
		}
	case classString:
		xs, ys := l.Strs, r.Strs
		for _, i := range cand {
			cand[k] = i
			k += int(mask >> strIdx(xs[i], ys[i]) & 1)
		}
	case classPath:
		k = len(cand) * int(mask>>1&1)
	}
	return cand[:k], nil
}

// dropNulls narrows cand to the rows a null mask leaves non-NULL.
func dropNulls(cand []int, nulls []bool) []int {
	if nulls == nil {
		return cand
	}
	k := 0
	for _, i := range cand {
		cand[k] = i
		k += b2i(!nulls[i])
	}
	return cand[:k]
}

// selectNull narrows cand to the rows whose NULL-ness is isNull.
func selectNull(x operand, cand []int, isNull bool) []int {
	switch {
	case x.col == nil:
		if x.val.Null != isNull {
			return cand[:0]
		}
		return cand
	case x.col.Nulls == nil:
		if isNull {
			return cand[:0]
		}
		return cand
	}
	k := 0
	for _, i := range cand {
		cand[k] = i
		k += b2i(x.col.Nulls[i] == isNull)
	}
	return cand[:k]
}

// selectBool narrows cand to the rows where a boolean operand is want.
func selectBool(x operand, cand []int, want bool) []int {
	if x.col == nil {
		if x.val.Null || (x.val.I != 0) != want {
			return cand[:0]
		}
		return cand
	}
	k := 0
	for _, i := range cand {
		cand[k] = i
		k += b2i((x.col.Ints[i] != 0) == want)
	}
	return dropNulls(cand[:k], x.col.Nulls)
}

// selectIn narrows cand to the rows where X IN (list) is found: TRUE
// when X equals some entry; FALSE when X and every entry are non-NULL
// and no entry equals it — so X IN (a, b) is X = a OR X = b, and its
// FALSE rows are those where every X = e is FALSE. Paths are never
// equal to anything here (types.Equal).
func selectIn(ctx *Context, t *InList, in *storage.Chunk, cand []int, found bool) ([]int, error) {
	x, err := evalOperand(ctx, t.X, in)
	if err != nil {
		return nil, err
	}
	list := make([]operand, len(t.List))
	for j, e := range t.List {
		if list[j], err = evalOperand(ctx, e, in); err != nil {
			return nil, err
		}
	}
	eq := cmpMasks[CmpEq]
	if x.col != nil && x.col.Kind == types.KindPath || x.col == nil && x.val.K == types.KindPath {
		eq = 0
	}
	if found {
		return selectAny(cand, len(list), func(j int, rows []int) ([]int, error) {
			return selectCmp(eq, x, list[j], rows)
		})
	}
	for _, e := range list {
		if cand, err = selectCmp(eq^maskAll, x, e, cand); err != nil {
			return nil, err
		}
	}
	return cand, nil
}

// selectLike narrows cand to the rows where X LIKE pattern is match.
// A constant pattern compiles once; a column of patterns recompiles
// only when the pattern changes from one row to the next.
func selectLike(x, p operand, cand []int, match bool) []int {
	if x.null() || p.null() {
		return cand[:0]
	}
	var m func(string) bool
	var pat string
	k := 0
	for _, i := range cand {
		if x.nullAt(i) || p.nullAt(i) {
			continue
		}
		if s := p.strAt(i); m == nil || s != pat {
			m, pat = compileLike(s), s
		}
		if m(x.strAt(i)) == match {
			cand[k] = i
			k++
		}
	}
	return cand[:k]
}

// column is an already evaluated operand standing in for its
// expression, so a predicate selected once per truth value computes
// its value operands once.
type column struct{ c *storage.Column }

func (e *column) Kind() types.Kind { return e.c.Kind }

func (e *column) Eval(*Context, *storage.Chunk) (*storage.Column, error) { return e.c, nil }

func (e *column) String() string { return "column" }

// pinned returns a copy of predicate p whose value operands are
// evaluated now, except column references and constants, which cost
// nothing to read again. Predicate operands (of AND, OR, NOT) are
// pinned in turn rather than evaluated.
func pinned(ctx *Context, p Expr, in *storage.Chunk) (Expr, error) {
	var err error
	pin := func(e *Expr) {
		if _, ok := (*e).(*ColRef); ok || err != nil {
			return
		}
		if _, ok := IsConst(*e, ctx); ok {
			return
		}
		switch (*e).(type) {
		case *Cmp, *Logic, *Not, *IsNull, *Like, *InList:
			*e, err = pinned(ctx, *e, in)
			return
		}
		var c *storage.Column
		if c, err = (*e).Eval(ctx, in); err == nil {
			*e = &column{c}
		}
	}
	switch t := p.(type) {
	case *Cmp:
		c := *t
		pin(&c.L)
		pin(&c.R)
		p = &c
	case *Logic:
		c := *t
		pin(&c.L)
		pin(&c.R)
		p = &c
	case *Not:
		c := *t
		pin(&c.X)
		p = &c
	case *IsNull:
		c := *t
		pin(&c.X)
		p = &c
	case *Like:
		c := *t
		pin(&c.X)
		pin(&c.Pattern)
		p = &c
	case *InList:
		c := *t
		pin(&c.X)
		c.List = append([]Expr(nil), t.List...)
		for i := range c.List {
			pin(&c.List[i])
		}
		p = &c
	}
	return p, err
}

// evalPredicate is a predicate's boolean column: 1 on the rows Select
// keeps, 0 on the rows where the predicate is FALSE, NULL on the rest.
func evalPredicate(ctx *Context, p Expr, in *storage.Chunk) (*storage.Column, error) {
	p, err := pinned(ctx, p, in)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	t, err := Select(ctx, p, in, nil)
	if err != nil {
		return nil, err
	}
	f, err := selectRows(ctx, p, in, Complement(t, n), false)
	if err != nil {
		return nil, err
	}
	ints := make([]int64, n)
	for _, i := range t {
		ints[i] = 1
	}
	out := storage.ColumnFromInts(types.KindBool, ints)
	if len(t)+len(f) < n {
		out.Nulls = make([]bool, n)
		for i := range out.Nulls {
			out.Nulls[i] = true
		}
		for _, i := range t {
			out.Nulls[i] = false
		}
		for _, i := range f {
			out.Nulls[i] = false
		}
	}
	return out, nil
}
