package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"graphsql"
)

func TestEncodeCells(t *testing.T) {
	res := &graphsql.Result{
		Columns: []string{"i", "f", "s", "b", "d", "n", "p"},
		Rows: [][]any{{
			int64(9007199254740993), // > 2^53: must stay exact
			1.5,
			"x",
			true,
			time.Date(2017, 5, 19, 0, 0, 0, 0, time.UTC),
			nil,
			&graphsql.Path{Columns: []string{"src", "dst"}, Rows: [][]any{{int64(1), int64(2)}}},
		}},
	}
	data, err := FromResult(res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{
		`9007199254740993`,
		`1.5`,
		`"x"`,
		`true`,
		`"2017-05-19"`,
		`null`,
		`{"columns":["src","dst"],"rows":[[1,2]]}`,
		`"row_count":1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("encoding missing %s:\n%s", want, got)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	res := &graphsql.Result{Columns: []string{"a"}, Rows: [][]any{{int64(1)}, {int64(2)}}}
	a, _ := FromResult(res).Encode()
	b, _ := FromResult(res).Encode()
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeRequestIntegerArgs(t *testing.T) {
	req, err := DecodeRequest[QueryRequest](strings.NewReader(`{"sql":"SELECT ?","args":[1, 2.5, "x", true, null, 9007199254740993]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := req.Args[0].(int64); !ok {
		t.Fatalf("arg 0: %T, want int64", req.Args[0])
	}
	if _, ok := req.Args[1].(float64); !ok {
		t.Fatalf("arg 1: %T, want float64", req.Args[1])
	}
	if req.Args[2] != "x" || req.Args[3] != true || req.Args[4] != nil {
		t.Fatalf("args: %+v", req.Args)
	}
	if got := req.Args[5].(int64); got != 9007199254740993 {
		t.Fatalf("large integer lost precision: %d", got)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	if _, err := DecodeRequest[QueryRequest](strings.NewReader(`{"sql":`)); err == nil {
		t.Fatal("expected error for truncated JSON")
	}
	if _, err := DecodeRequest[QueryRequest](strings.NewReader(`{"sql":"q","args":[[1]]}`)); err == nil {
		t.Fatal("expected error for nested-array argument")
	}
}

func TestErrorPayload(t *testing.T) {
	data, err := json.Marshal(FromError(CodeQueueFull, ErrTest))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"code":"queue_full"`) {
		t.Fatalf("bad error payload: %s", data)
	}
}

// ErrTest is a fixture error.
var ErrTest = &Error{Code: "x", Message: "boom"}

// FuzzAppendCell holds the direct int64, float64 and string cases of
// the cell encoder to encoding/json, byte for byte; strings are
// arbitrary bytes, so escaping and invalid UTF-8 are covered.
func FuzzAppendCell(f *testing.F) {
	f.Add(int64(0), 0.0, "")
	f.Add(int64(math.MinInt64), math.Copysign(0, -1), "plain")
	f.Add(int64(math.MaxInt64), 1e-6, "<&>\"\\")
	f.Add(int64(-1), math.Nextafter(1e-6, 0), "\b\f\x00\x1f\x7f")
	f.Add(int64(1), 1e21, "\u2028\u2029")
	f.Add(int64(42), math.Nextafter(1e21, 0), "bad\xff\xc3")
	f.Add(int64(7), 5e-324, "héllo 日本 😀 \ufffd")
	f.Add(int64(8), math.MaxFloat64, "\xed\xa0\x80")
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string) {
		for _, v := range []any{i, fl, s} {
			want, wantErr := json.Marshal(v)
			got, err := appendCell([]byte("prefix"), v)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%#v: error %v, encoding/json's %v", v, err, wantErr)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("%#v: error %q, encoding/json's %q", v, err, wantErr)
				}
				continue
			}
			if string(got) != "prefix"+string(want) {
				t.Fatalf("%#v: encoded %s, encoding/json %s", v, got[len("prefix"):], want)
			}
		}
	})
}
