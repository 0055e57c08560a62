package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// testChunk builds a two-column chunk: a BIGINT (with one NULL) and a
// VARCHAR.
func testChunk() *storage.Chunk {
	c := storage.NewChunk(storage.Schema{
		{Name: "a", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
	})
	c.AppendRow([]types.Value{types.NewInt(10), types.NewString("x")})
	c.AppendRow([]types.Value{types.NewNull(types.KindInt), types.NewString("y")})
	c.AppendRow([]types.Value{types.NewInt(-3), types.NewString("x")})
	return c
}

func eval(t *testing.T, e Expr, in *storage.Chunk) *storage.Column {
	t.Helper()
	col, err := e.Eval(&Context{}, in)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return col
}

func colRef(idx int, k types.Kind) *ColRef { return &ColRef{Idx: idx, K: k} }

func TestColRefSharesColumn(t *testing.T) {
	in := testChunk()
	col := eval(t, colRef(0, types.KindInt), in)
	if col != in.Cols[0] {
		t.Fatal("column references must not copy")
	}
	if _, err := colRef(9, types.KindInt).Eval(&Context{}, in); err == nil {
		t.Fatal("out-of-range ref must error")
	}
}

func TestConstAndParam(t *testing.T) {
	in := testChunk()
	col := eval(t, &Const{Val: types.NewInt(7)}, in)
	if col.Len() != 3 || col.Get(2).I != 7 {
		t.Fatal("const broadcast wrong")
	}
	p := &Param{Idx: 0, K: types.KindString}
	col, err := p.Eval(&Context{Params: []types.Value{types.NewString("v")}}, in)
	if err != nil || col.Get(0).S != "v" {
		t.Fatalf("param eval: %v", err)
	}
	if _, err := p.Eval(&Context{}, in); err == nil {
		t.Fatal("missing param must error")
	}
}

func TestArithNullsAndKinds(t *testing.T) {
	in := testChunk()
	add := &Arith{Op: OpAdd, L: colRef(0, types.KindInt), R: &Const{Val: types.NewInt(1)}, K: types.KindInt}
	col := eval(t, add, in)
	if col.Get(0).I != 11 || !col.IsNull(1) || col.Get(2).I != -2 {
		t.Fatalf("add = %v %v %v", col.Get(0), col.Get(1), col.Get(2))
	}
	div := &Arith{Op: OpDiv, L: &Const{Val: types.NewFloat(3)}, R: &Const{Val: types.NewFloat(2)}, K: types.KindFloat}
	col = eval(t, div, in)
	if col.Get(0).F != 1.5 {
		t.Fatalf("3.0/2 = %v", col.Get(0))
	}
}

func TestPropertyIntArithmetic(t *testing.T) {
	one := storage.NewChunk(storage.Schema{{Name: "x", Kind: types.KindInt}})
	one.AppendRow([]types.Value{types.NewInt(0)})
	f := func(a, b int64) bool {
		mk := func(op ArithOp) int64 {
			e := &Arith{Op: op, L: &Const{Val: types.NewInt(a)}, R: &Const{Val: types.NewInt(b)}, K: types.KindInt}
			col, err := e.Eval(&Context{}, one)
			if err != nil {
				return 0
			}
			return col.Get(0).I
		}
		return mk(OpAdd) == a+b && mk(OpSub) == a-b && mk(OpMul) == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmpFastAndSlowPaths(t *testing.T) {
	in := testChunk()
	// Fast path (no nulls): strings.
	cmp := &Cmp{Op: CmpEq, L: colRef(1, types.KindString), R: &Const{Val: types.NewString("x")}}
	col := eval(t, cmp, in)
	if !col.Get(0).Bool() || col.Get(1).Bool() || !col.Get(2).Bool() {
		t.Fatal("string eq wrong")
	}
	// Slow path (nulls): int compare with NULL yields NULL.
	cmp = &Cmp{Op: CmpLt, L: colRef(0, types.KindInt), R: &Const{Val: types.NewInt(0)}}
	col = eval(t, cmp, in)
	if col.Get(0).Bool() || !col.IsNull(1) || !col.Get(2).Bool() {
		t.Fatalf("lt = %v %v %v", col.Get(0), col.Get(1), col.Get(2))
	}
}

func TestLogicTruthTable(t *testing.T) {
	tv := func(b bool) Expr { return &Const{Val: types.NewBool(b)} }
	nv := &Const{Val: types.NewNull(types.KindBool)}
	one := storage.NewChunk(storage.Schema{{Name: "x", Kind: types.KindInt}})
	one.AppendRow([]types.Value{types.NewInt(0)})
	check := func(e Expr, wantNull bool, want bool) {
		t.Helper()
		col, err := e.Eval(&Context{}, one)
		if err != nil {
			t.Fatal(err)
		}
		if col.IsNull(0) != wantNull {
			t.Fatalf("%s: null = %v, want %v", e, col.IsNull(0), wantNull)
		}
		if !wantNull && col.Get(0).Bool() != want {
			t.Fatalf("%s = %v, want %v", e, col.Get(0).Bool(), want)
		}
	}
	check(&Logic{And: true, L: tv(true), R: tv(true)}, false, true)
	check(&Logic{And: true, L: tv(true), R: tv(false)}, false, false)
	check(&Logic{And: true, L: nv, R: tv(false)}, false, false) // NULL AND FALSE = FALSE
	check(&Logic{And: true, L: nv, R: tv(true)}, true, false)   // NULL AND TRUE = NULL
	check(&Logic{And: false, L: nv, R: tv(true)}, false, true)  // NULL OR TRUE = TRUE
	check(&Logic{And: false, L: nv, R: tv(false)}, true, false) // NULL OR FALSE = NULL
	check(&Not{X: nv}, true, false)                             // NOT NULL = NULL
	check(&Not{X: tv(false)}, false, true)
}

func TestConcatAndIsNull(t *testing.T) {
	in := testChunk()
	cat := &Concat{L: colRef(1, types.KindString), R: &Const{Val: types.NewString("!")}}
	col := eval(t, cat, in)
	if col.Get(0).S != "x!" {
		t.Fatalf("concat = %q", col.Get(0).S)
	}
	isn := &IsNull{X: colRef(0, types.KindInt)}
	col = eval(t, isn, in)
	if col.Get(0).Bool() || !col.Get(1).Bool() {
		t.Fatal("IS NULL wrong")
	}
	notn := &IsNull{X: colRef(0, types.KindInt), Not: true}
	col = eval(t, notn, in)
	if !col.Get(0).Bool() || col.Get(1).Bool() {
		t.Fatal("IS NOT NULL wrong")
	}
}

func TestLikeCorners(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "x%", false},
		{"hello", "%x", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"ac", "a%b%c", false},
		{"a%c", "a%c", true}, // % in the middle matches anything incl. literal %
		{"abcabc", "%abc", true},
		{"abcabc", "abc%abc", true},
	}
	for _, c := range cases {
		m := compileLike(c.pat)
		if got := m(c.s); got != c.want {
			t.Errorf("LIKE(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestCaseEval(t *testing.T) {
	in := testChunk()
	// CASE WHEN a >= 0 THEN 'pos' ELSE 'neg' END, NULL arm falls to ELSE.
	ce := &Case{
		Whens: []Expr{&Cmp{Op: CmpGe, L: colRef(0, types.KindInt), R: &Const{Val: types.NewInt(0)}}},
		Thens: []Expr{&Const{Val: types.NewString("pos")}},
		Else:  &Const{Val: types.NewString("neg")},
		K:     types.KindString,
	}
	col := eval(t, ce, in)
	if col.Get(0).S != "pos" || col.Get(1).S != "neg" || col.Get(2).S != "neg" {
		t.Fatalf("case = %v %v %v", col.Get(0), col.Get(1), col.Get(2))
	}
	// Without ELSE, unmatched rows become NULL.
	ce.Else = nil
	col = eval(t, ce, in)
	if !col.IsNull(1) {
		t.Fatal("missing ELSE must yield NULL")
	}
}

func TestCastEval(t *testing.T) {
	in := testChunk()
	c := &Cast{X: colRef(0, types.KindInt), To: types.KindString}
	col := eval(t, c, in)
	if col.Get(0).S != "10" || !col.IsNull(1) {
		t.Fatalf("cast = %v %v", col.Get(0), col.Get(1))
	}
	// Identity cast is free.
	id := &Cast{X: colRef(0, types.KindInt), To: types.KindInt}
	col = eval(t, id, in)
	if col != in.Cols[0] {
		t.Fatal("identity cast must not copy")
	}
}

func TestCastValueMatrix(t *testing.T) {
	cases := []struct {
		in   types.Value
		to   types.Kind
		want string
		ok   bool
	}{
		{types.NewFloat(2.9), types.KindInt, "2", true},
		{types.NewString(" 42 "), types.KindInt, "42", true},
		{types.NewString("4.7"), types.KindInt, "4", true},
		{types.NewString("x"), types.KindInt, "", false},
		{types.NewInt(1), types.KindBool, "true", true},
		{types.NewString("false"), types.KindBool, "false", true},
		{types.NewString("maybe"), types.KindBool, "", false},
		{types.NewString("2020-02-02"), types.KindDate, "2020-02-02", true},
		{types.NewBool(true), types.KindString, "true", true},
		{types.NewDate(0), types.KindString, "1970-01-01", true},
	}
	for _, c := range cases {
		got, err := CastValue(c.in, c.to)
		if c.ok != (err == nil) {
			t.Errorf("cast %v -> %v: err = %v", c.in, c.to, err)
			continue
		}
		if c.ok && got.String() != c.want {
			t.Errorf("cast %v -> %v = %q, want %q", c.in, c.to, got.String(), c.want)
		}
	}
}

func TestInListSemantics(t *testing.T) {
	in := testChunk()
	il := &InList{
		X:    colRef(0, types.KindInt),
		List: []Expr{&Const{Val: types.NewInt(10)}, &Const{Val: types.NewNull(types.KindInt)}},
	}
	col := eval(t, il, in)
	// 10 IN (10, NULL) = TRUE; NULL IN ... = NULL; -3 IN (10, NULL) = NULL.
	if !col.Get(0).Bool() || !col.IsNull(1) || !col.IsNull(2) {
		t.Fatalf("in = %v %v %v", col.Get(0), col.Get(1), col.Get(2))
	}
}

// TestPathPredicatesFollowTheReference pins what comparisons do with
// nested-table paths: types.Compare calls every pair equal, while IN
// uses types.Equal, which never matches a path.
func TestPathPredicatesFollowTheReference(t *testing.T) {
	in := storage.NewChunk(storage.Schema{{Name: "p", Kind: types.KindPath}, {Name: "q", Kind: types.KindPath}})
	p := &types.Path{Cols: []string{"src", "dst"}}
	in.AppendRow([]types.Value{types.NewPath(p), types.NewPath(&types.Path{})})
	in.AppendRow([]types.Value{types.NewNull(types.KindPath), types.NewPath(p)})
	in.AppendRow([]types.Value{types.NewPath(p), types.NewNull(types.KindPath)})
	x, y := colRef(0, types.KindPath), colRef(1, types.KindPath)
	for op := CmpEq; op <= CmpGe; op++ {
		checkPredicate(t, &Context{}, &Cmp{Op: op, L: x, R: y}, in)
	}
	for _, not := range []bool{false, true} {
		checkPredicate(t, &Context{}, &InList{X: x, List: []Expr{y, x}, Not: not}, in)
		checkPredicate(t, &Context{}, &InList{X: x, List: []Expr{y}, Not: not}, in)
	}
}

func TestIsConst(t *testing.T) {
	ctx := &Context{Params: []types.Value{types.NewInt(9)}}
	if v, ok := IsConst(&Const{Val: types.NewInt(5)}, ctx); !ok || v.I != 5 {
		t.Fatal("literal const not detected")
	}
	if v, ok := IsConst(&Param{Idx: 0, K: types.KindInt}, ctx); !ok || v.I != 9 {
		t.Fatal("param const not detected")
	}
	if v, ok := IsConst(&Cast{X: &Const{Val: types.NewFloat(2.5)}, To: types.KindInt}, ctx); !ok || v.I != 2 {
		t.Fatal("cast-of-const not detected")
	}
	if _, ok := IsConst(&ColRef{Idx: 0, K: types.KindInt}, ctx); ok {
		t.Fatal("colref is not const")
	}
}

func TestRefsAndMapRefs(t *testing.T) {
	e := &Arith{Op: OpAdd,
		L: &ColRef{Idx: 2, K: types.KindInt},
		R: &Cast{X: &ColRef{Idx: 5, K: types.KindFloat}, To: types.KindInt},
		K: types.KindInt}
	refs := Refs(e, nil)
	if len(refs) != 2 || refs[0] != 2 || refs[1] != 5 {
		t.Fatalf("refs = %v", refs)
	}
	shifted := MapRefs(e, func(i int) int { return i - 2 })
	refs2 := Refs(shifted, nil)
	if refs2[0] != 0 || refs2[1] != 3 {
		t.Fatalf("shifted refs = %v", refs2)
	}
	// The original is untouched.
	if Refs(e, nil)[0] != 2 {
		t.Fatal("MapRefs mutated its input")
	}
}

func TestSplitAndAndAll(t *testing.T) {
	a := &Const{Val: types.NewBool(true)}
	b := &Const{Val: types.NewBool(false)}
	c := &Const{Val: types.NewBool(true)}
	tree := &Logic{And: true, L: &Logic{And: true, L: a, R: b}, R: c}
	parts := SplitConjuncts(tree, nil)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	back := AndAll(parts)
	if back == nil || !strings.Contains(back.String(), "AND") {
		t.Fatalf("AndAll = %v", back)
	}
	if AndAll(nil) != nil {
		t.Fatal("AndAll(nil) must be nil")
	}
}

func TestEvalScalar(t *testing.T) {
	v, err := EvalScalar(&Arith{Op: OpMul,
		L: &Const{Val: types.NewInt(6)},
		R: &Const{Val: types.NewInt(7)}, K: types.KindInt}, &Context{})
	if err != nil || v.I != 42 {
		t.Fatalf("scalar = %v, %v", v, err)
	}
}

// TestEvalScalarConstantsAreColumnValues pins that a literal or
// parameter answered directly is the value a one-row column of it
// would hold, an untyped NULL's kind included, and costs no allocation.
func TestEvalScalarConstantsAreColumnValues(t *testing.T) {
	vals := []types.Value{
		types.NewNull(types.KindNull), types.NewNull(types.KindString), types.NewNull(types.KindDate),
		types.NewInt(-7), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()),
		types.NewString("x"), types.NewBool(true), types.NewDate(19000),
		types.NewPath(&types.Path{Cols: []string{"src"}}),
	}
	ctx := &Context{Params: vals}
	for i, v := range vals {
		want := storage.ConstColumn(v, 1).Get(0)
		for _, e := range []Expr{&Const{Val: v}, &Param{Idx: i, K: v.K}} {
			got, err := EvalScalar(e, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.K != want.K || got.Null != want.Null || got.I != want.I || got.S != want.S || got.P != want.P ||
				math.Float64bits(got.F) != math.Float64bits(want.F) {
				t.Fatalf("EvalScalar(%s) = %#v, want %#v", e, got, want)
			}
		}
	}
	lit := &Const{Val: types.NewString("x")}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = EvalScalar(lit, ctx) }); allocs != 0 {
		t.Fatalf("EvalScalar of a literal allocated %v times", allocs)
	}
}

func TestScalarFuncKindResolution(t *testing.T) {
	if k, ok := ScalarFuncKind("ABS", []types.Kind{types.KindFloat}); !ok || k != types.KindFloat {
		t.Fatal("ABS(float) -> float")
	}
	if k, ok := ScalarFuncKind("COALESCE", []types.Kind{types.KindNull, types.KindInt, types.KindFloat}); !ok || k != types.KindFloat {
		t.Fatal("COALESCE promotes")
	}
	if _, ok := ScalarFuncKind("ABS", []types.Kind{types.KindString}); ok {
		t.Fatal("ABS(string) must be rejected")
	}
	if _, ok := ScalarFuncKind("NOPE", []types.Kind{}); ok {
		t.Fatal("unknown function must be rejected")
	}
	if k, ok := ScalarFuncKind("PATH_LENGTH", []types.Kind{types.KindPath}); !ok || k != types.KindInt {
		t.Fatal("PATH_LENGTH(path) -> int")
	}
}
