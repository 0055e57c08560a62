package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"graphsql"
)

// TestStreamRoundTrip writes a result as chunked frames and folds it
// back, requiring the folded encoding to be byte-identical to the
// buffered encoding of the same result.
func TestStreamRoundTrip(t *testing.T) {
	res := &graphsql.Result{
		Columns: []string{"id", "score", "name", "ok", "day", "path", "missing"},
		Rows: [][]any{
			{int64(1), 1.5, "a", true, time.Date(2017, 5, 19, 0, 0, 0, 0, time.UTC),
				&graphsql.Path{Columns: []string{"s", "d"}, Rows: [][]any{{int64(1), int64(2)}}}, nil},
			{int64(2), 2.25, "b", false, time.Date(2017, 5, 20, 0, 0, 0, 0, time.UTC),
				&graphsql.Path{Columns: []string{"s", "d"}}, nil},
			{int64(3), -0.5, "c", true, time.Date(2017, 5, 21, 0, 0, 0, 0, time.UTC), nil, nil},
		},
	}
	want, err := FromResult(res).Encode()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Header(res.Columns); err != nil {
		t.Fatal(err)
	}
	// Two-row then one-row batches exercise multi-frame folding.
	if err := sw.Batch(res.Rows[:2]); err != nil {
		t.Fatal(err)
	}
	if err := sw.Batch(res.Rows[2:]); err != nil {
		t.Fatal(err)
	}
	if err := sw.Trailer(nil); err != nil {
		t.Fatal(err)
	}

	folded, batches, err := FoldStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 2 {
		t.Fatalf("expected 2 batch frames, got %d", batches)
	}
	got, err := folded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("folded stream differs from buffered encoding\ngot:  %s\nwant: %s", got, want)
	}
}

// TestStreamErrorTrailer folds a stream cut short by an error into the
// buffered error shape, discarding the partial rows.
func TestStreamErrorTrailer(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Header([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Batch([][]any{{int64(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Fail(CodeCanceled, errors.New("client went away")); err != nil {
		t.Fatal(err)
	}
	folded, batches, err := FoldStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 1 {
		t.Fatalf("expected 1 batch frame, got %d", batches)
	}
	if folded.Error == nil || folded.Error.Code != CodeCanceled || len(folded.Rows) != 0 {
		t.Fatalf("unexpected fold of error stream: %+v", folded)
	}
}

// TestStreamEmptyResult: header + trailer only, zero batches.
func TestStreamEmptyResult(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Header([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Batch(nil); err != nil { // skipped, not a frame
		t.Fatal(err)
	}
	if err := sw.Trailer(nil); err != nil {
		t.Fatal(err)
	}
	folded, batches, err := FoldStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 0 || folded.RowCount != 0 || folded.Error != nil {
		t.Fatalf("unexpected fold: %+v (%d batches)", folded, batches)
	}
}

// TestStreamTruncated: a stream without a trailer must not fold.
func TestStreamTruncated(t *testing.T) {
	in := `{"columns":["x"]}` + "\n" + `{"rows":[[1]]}` + "\n"
	if _, _, err := FoldStream(strings.NewReader(in)); err == nil {
		t.Fatal("truncated stream folded without error")
	}
	// A row_count that disagrees with the delivered rows is rejected.
	in += `{"row_count":7}` + "\n"
	if _, _, err := FoldStream(strings.NewReader(in)); err == nil {
		t.Fatal("row_count mismatch folded without error")
	}
}

// TestStreamRowCountCountsWrittenRows: the trailer's row_count counts
// only the rows of batch frames actually written — not a batch whose
// cell failed to encode, nor one whose write failed.
func TestStreamRowCountCountsWrittenRows(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Header([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Batch([][]any{{1.5}, {2.5}}); err != nil {
		t.Fatal(err)
	}
	err := sw.Batch([][]any{{3.5}, {math.Inf(1)}})
	var encErr *EncodeError
	if !errors.As(err, &encErr) || err.Error() != "json: unsupported value: +Inf" || ErrorCode(err, CodeSQL) != CodeInternal {
		t.Fatalf("unencodable batch: err %v (%T), want an internal *EncodeError with encoding/json's text", err, err)
	}
	if err := sw.Fail(CodeInternal, err); err != nil {
		t.Fatal(err)
	}
	want := `{"columns":["x"]}` + "\n" + `{"rows":[[1.5],[2.5]]}` + "\n" +
		`{"row_count":2,"error":{"code":"internal","message":"json: unsupported value: +Inf"}}` + "\n"
	if buf.String() != want {
		t.Fatalf("stream:\n%s\nwant:\n%s", buf.String(), want)
	}

	w := &failingWriter{okWrites: 2}
	sw = NewStreamWriter(w)
	if err := sw.Header([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Batch([][]any{{int64(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Batch([][]any{{int64(2)}}); err == nil {
		t.Fatal("write failure not reported")
	}
	if sw.sent != 1 {
		t.Fatalf("row count %d after one written frame, want 1", sw.sent)
	}
}

// failingWriter accepts okWrites writes, then fails every one.
type failingWriter struct{ okWrites int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.okWrites == 0 {
		return 0, errors.New("connection reset")
	}
	w.okWrites--
	return len(p), nil
}

// TestStreamRowsRewindowsEncodedRows: an Encoded result written in any
// frame size folds back to its buffered body, with no cell encoded
// again.
func TestStreamRowsRewindowsEncodedRows(t *testing.T) {
	rows := [][]any{{int64(1), "a"}, {int64(2), nil}, {int64(3), "<c>"}, {int64(4), 4.5}, {int64(5), true}}
	enc := NewEncoded([]string{"n", "v"})
	if err := enc.Append(rows[:2]); err != nil {
		t.Fatal(err)
	}
	if err := enc.Append(rows[2:]); err != nil {
		t.Fatal(err)
	}
	want, err := enc.AppendResponse(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct, _ := FromResult(&graphsql.Result{Columns: enc.Columns(), Rows: rows}).Encode(); !bytes.Equal(direct, want) {
		t.Fatalf("encoded body %s, want %s", want, direct)
	}
	for frame := 1; frame <= 6; frame++ {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		if err := sw.Header(enc.Columns()); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < enc.Len(); lo += frame {
			if err := sw.Rows(enc, lo, min(lo+frame, enc.Len())); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Trailer(nil); err != nil {
			t.Fatal(err)
		}
		folded, batches, err := FoldStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := folded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if wantBatches := (enc.Len() + frame - 1) / frame; batches != wantBatches || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d batches folding to %s, want %d folding to %s", frame, batches, got, wantBatches, want)
		}
	}
}
