package types

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "BIGINT",
		KindFloat: "DOUBLE", KindString: "VARCHAR", KindDate: "DATE",
		KindPath: "NESTED TABLE",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindInt.Numeric() || !KindFloat.Numeric() {
		t.Error("int/float must be numeric")
	}
	if KindString.Numeric() || KindDate.Numeric() || KindPath.Numeric() {
		t.Error("string/date/path must not be numeric")
	}
	for _, k := range []Kind{KindBool, KindInt, KindFloat, KindString, KindDate} {
		if !k.Comparable() {
			t.Errorf("%v must be comparable", k)
		}
	}
	if KindPath.Comparable() || KindNull.Comparable() {
		t.Error("path/null must not be comparable")
	}
	for k := KindNull; k <= KindPath; k++ {
		want := k
		if k == KindNull {
			want = KindInt
		}
		if k.Stored() != want {
			t.Errorf("%v.Stored() = %v, want %v", k, k.Stored(), want)
		}
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewString("hi"), "hi"},
		{NewNull(KindInt), "NULL"},
		{NewDate(0), "1970-01-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseAndFormatDate(t *testing.T) {
	d, err := ParseDate("2011-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(d) != "2011-01-01" {
		t.Fatalf("round-trip failed: %s", FormatDate(d))
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Fatal("expected error for malformed date")
	}
	if _, err := ParseDate("2011-13-45"); err == nil {
		t.Fatal("expected error for invalid date")
	}
}

func TestPropertyDateRoundTrip(t *testing.T) {
	f := func(days uint16) bool {
		d := int64(days)
		back, err := ParseDate(FormatDate(d))
		return err == nil && back == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewDate(10), NewDate(20), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if !Equal(NewNull(KindInt), NewNull(KindString)) {
		t.Error("NULLs group together")
	}
	if Equal(NewNull(KindInt), NewInt(0)) {
		t.Error("NULL != 0")
	}
	if !Equal(NewInt(5), NewInt(5)) || Equal(NewInt(5), NewInt(6)) {
		t.Error("int equality broken")
	}
	// Numeric cross-kind equality.
	if !Equal(NewInt(2), NewFloat(2.0)) {
		t.Error("2 must equal 2.0")
	}
}

func TestCommonKind(t *testing.T) {
	cases := []struct {
		a, b Kind
		want Kind
		ok   bool
	}{
		{KindInt, KindInt, KindInt, true},
		{KindInt, KindFloat, KindFloat, true},
		{KindFloat, KindInt, KindFloat, true},
		{KindNull, KindString, KindString, true},
		{KindDate, KindNull, KindDate, true},
		{KindString, KindInt, KindNull, false},
		{KindBool, KindDate, KindNull, false},
	}
	for _, c := range cases {
		got, ok := CommonKind(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CommonKind(%v, %v) = (%v, %v), want (%v, %v)", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestPathLenAndString(t *testing.T) {
	var nilPath *Path
	if nilPath.Len() != 0 {
		t.Error("nil path has length 0")
	}
	empty := &Path{Cols: []string{"s", "d"}, Kinds: []Kind{KindInt, KindInt}}
	if empty.Len() != 0 || empty.String() != "[]" {
		t.Errorf("empty path: len=%d str=%q", empty.Len(), empty.String())
	}
	p := &Path{
		Cols:  []string{"s", "d"},
		Kinds: []Kind{KindInt, KindInt},
		Rows: [][]Value{
			{NewInt(1), NewInt(2)},
			{NewInt(2), NewInt(3)},
		},
	}
	if p.Len() != 2 {
		t.Errorf("len = %d, want 2", p.Len())
	}
	if got := p.String(); got != "[(1, 2); (2, 3)]" {
		t.Errorf("String() = %q", got)
	}
}

func TestAsFloat(t *testing.T) {
	if NewInt(3).AsFloat() != 3.0 {
		t.Error("int widening failed")
	}
	if NewFloat(2.5).AsFloat() != 2.5 {
		t.Error("float identity failed")
	}
	if NewBool(true).AsFloat() != 1.0 {
		t.Error("bool widening failed")
	}
}

// FuzzParseDate holds ParseDate to time.Parse: the same day number for
// every input it accepts, and the same error text for every other.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{
		"2020-02-29", "2021-02-29", "1900-02-29", "2000-02-29", "0000-02-29",
		"0000-01-01", "9999-12-31", "1969-12-31", "1970-01-01", "2011-04-31",
		"2020-1-01", "2020-13-01", "2020-00-10", "2020-01-00", "2020-01-32",
		"+020-01-01", "-001-01-01", "2020-01-01 ", " 2020-01-01", "2020/01/01",
		"20200-1-01", "", "soon", "2020-0a-01", "2020-01-1\x00",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := int64(0), error(nil)
		if tm, err := time.Parse("2006-01-02", s); err != nil {
			werr = fmt.Errorf("invalid date literal %q: %w", s, err)
		} else {
			want = tm.Unix() / 86400
		}
		got, err := ParseDate(s)
		if fmt.Sprint(err) != fmt.Sprint(werr) || got != want {
			t.Fatalf("ParseDate(%q) = %d, %v; time.Parse says %d, %v", s, got, err, want, werr)
		}
	})
}

// TestParseDateCountsEveryMonth: the first and the last day of every
// month of years 0000–9999, and the day after the last, against time.
func TestParseDateCountsEveryMonth(t *testing.T) {
	for y := 0; y <= 9999; y++ {
		for m := time.January; m <= time.December; m++ {
			last := time.Date(y, m+1, 0, 0, 0, 0, 0, time.UTC).Day()
			for _, d := range []int{1, last, last + 1} {
				s := fmt.Sprintf("%04d-%02d-%02d", y, m, d)
				got, err := ParseDate(s)
				tm, terr := time.Parse("2006-01-02", s)
				if (err == nil) != (terr == nil) || err == nil && got != tm.Unix()/86400 {
					t.Fatalf("ParseDate(%q) = %d, %v; time says %v, %v", s, got, err, tm, terr)
				}
			}
		}
	}
}
