package wire

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"graphsql"
)

// testdata/golden.txt holds the buffered body and the NDJSON stream of
// every goldenCases entry. It was rendered by the reflective encoder
// (encodeCell + encoding/json) that the append encoder replaced, so the
// encoder is checked against bytes it did not produce. Regenerate with
//
//	go test ./internal/wire -run TestWireGolden -update
//
// only when the corpus itself changes, and review the diff.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current encoder")

const goldenPath = "testdata/golden.txt"

func date(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }

// goldenCases covers every cell kind the facade produces, at the edges
// where encoding/json changes notation or escapes.
func goldenCases() []struct {
	name string
	res  *graphsql.Result
} {
	below := func(f float64) float64 { return math.Nextafter(f, 0) }
	above := func(f float64) float64 { return math.Nextafter(f, math.Inf(1)) }
	return []struct {
		name string
		res  *graphsql.Result
	}{
		{"nulls", &graphsql.Result{
			Columns: []string{"i", "f", "s", "b", "d", "p"},
			Rows: [][]any{
				{nil, nil, nil, nil, nil, nil},
				{int64(1), 1.5, "x", true, date(2017, 5, 19), nil},
			},
		}},
		{"floats", &graphsql.Result{
			Columns: []string{"f"},
			Rows: [][]any{
				{0.0}, {math.Copysign(0, -1)}, {1.0}, {-1.0}, {0.1}, {1.5}, {-2.25}, {123456789.125},
				{1e-6}, {below(1e-6)}, {above(1e-6)}, {-1e-6}, {-below(1e-6)},
				{1e21}, {below(1e21)}, {above(1e21)}, {-1e21}, {-below(1e21)},
				{1e20}, {1e-7}, {1.2345e-9}, {5e-324}, {-5e-324}, {math.SmallestNonzeroFloat64 * 3},
				{math.MaxFloat64}, {-math.MaxFloat64}, {float64(1 << 53)}, {float64(1<<53) + 2},
			},
		}},
		{"ints", &graphsql.Result{
			Columns: []string{"i"},
			Rows: [][]any{
				{int64(0)}, {int64(-1)}, {int64(1)}, {int64(9007199254740993)},
				{int64(math.MinInt64)}, {int64(math.MaxInt64)},
			},
		}},
		{"bools", &graphsql.Result{
			Columns: []string{"b"},
			Rows:    [][]any{{true}, {false}},
		}},
		{"strings", &graphsql.Result{
			Columns: []string{"s"},
			Rows: [][]any{
				{""}, {"plain ascii"}, {`"quoted"`}, {`back\slash`}, {"<tag>"}, {"a&b"},
				{"\b\f\n\r\t"}, {"\x00\x01\x1f"}, {"del\x7f"}, {"line\u2028sep\u2029para"},
				{"bad\xffutf8"}, {"trunc\xc3"}, {"\xed\xa0\x80surrogate"},
				{"héllo wörld"}, {"日本語"}, {"emoji 😀"}, {"\ufffd replacement"},
			},
		}},
		{"dates", &graphsql.Result{
			Columns: []string{"d"},
			Rows: [][]any{
				{date(2017, 5, 19)}, {date(1970, 1, 1)}, {date(1969, 12, 31)}, {date(1900, 2, 28)},
				{date(1, 1, 1)}, {date(9999, 12, 31)},
			},
		}},
		{"paths", &graphsql.Result{
			Columns: []string{"cost", "path"},
			Rows: [][]any{
				{int64(2), &graphsql.Path{
					Columns: []string{"src", "dst", "w", "since", "note"},
					Rows: [][]any{
						{int64(1), int64(2), 0.5, date(1969, 7, 20), nil},
						{int64(2), int64(3), nil, nil, "<&>"},
					},
				}},
				{int64(0), &graphsql.Path{Columns: []string{"src", "dst"}}},
				{nil, nil},
			},
		}},
		{"columns", &graphsql.Result{
			Columns: []string{"plain", "qu\"ote", "<html>", "ünï", "line\u2028"},
			Rows:    [][]any{{int64(1), int64(2), int64(3), int64(4), int64(5)}},
		}},
		{"empty", &graphsql.Result{Columns: []string{"a", "b"}}},
		{"no columns", &graphsql.Result{}},
		{"empty row", &graphsql.Result{Columns: []string{"a"}, Rows: [][]any{{}}}},
		{"+inf", &graphsql.Result{Columns: []string{"x"}, Rows: [][]any{{math.Inf(1)}}}},
		{"-inf", &graphsql.Result{Columns: []string{"x"}, Rows: [][]any{{int64(1)}, {math.Inf(-1)}}}},
		{"nan", &graphsql.Result{Columns: []string{"x"}, Rows: [][]any{{math.NaN()}}}},
		{"inf in path", &graphsql.Result{Columns: []string{"p"}, Rows: [][]any{{
			&graphsql.Path{Columns: []string{"w"}, Rows: [][]any{{math.Inf(1)}}},
		}}}},
	}
}

// renderGolden renders each case's buffered body and its stream in
// two-row frames; a case that fails to encode renders the error text
// each writer returned instead.
func renderGolden(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, c := range goldenCases() {
		fmt.Fprintf(&b, "== %s\n-- buffered\n", c.name)
		if data, err := FromResult(c.res).Encode(); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		} else {
			fmt.Fprintf(&b, "%s\n", data)
		}
		b.WriteString("-- stream\n")
		var out bytes.Buffer
		sw := NewStreamWriter(&out)
		err := sw.Header(c.res.Columns)
		for lo := 0; err == nil && lo < len(c.res.Rows); lo += 2 {
			err = sw.Batch(c.res.Rows[lo:min(lo+2, len(c.res.Rows))])
		}
		if err == nil {
			err = sw.Trailer(nil)
		}
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		b.Write(out.Bytes())
	}
	return b.Bytes()
}

// TestWireGolden requires both encodings of every golden case to stay
// byte-identical to the committed rendering.
func TestWireGolden(t *testing.T) {
	got := renderGolden(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d differs\ngot:  %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}
