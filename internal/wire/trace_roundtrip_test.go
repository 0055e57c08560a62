package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"graphsql/internal/trace"
)

// sampleTrace builds a span tree with every feature a real query
// produces: nested operator spans, row counts, workers and frontier
// level samples.
func sampleTrace() *trace.Node {
	tr := trace.New()
	adm := tr.Begin(trace.NoSpan, "admission")
	tr.End(adm)
	ex := tr.Begin(trace.NoSpan, "execute")
	proj := tr.Begin(ex, "Project")
	gm := tr.Begin(proj, "GraphMatch")
	tr.SetRows(gm, 7)
	tr.SetWorkers(gm, 2)
	tr.AddSolve(gm, []trace.Level{{Level: 0, Size: 1}, {Level: 1, Size: 42}, {Level: 0, Size: 3, Backward: true}},
		trace.Searches{Both: 1, Forward: 2})
	tr.End(gm)
	tr.SetRows(proj, 7)
	tr.End(proj)
	tr.End(ex)
	return tr.Tree()
}

// TestTraceRoundTripBuffered: a traced QueryResponse survives its wire
// encoding — the decoded trace re-encodes to the identical bytes.
func TestTraceRoundTripBuffered(t *testing.T) {
	resp := &QueryResponse{
		Columns:  []string{"a"},
		Rows:     [][]any{{int64(1)}},
		RowCount: 1,
		Trace:    sampleTrace(),
	}
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back QueryResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace == nil {
		t.Fatal("trace lost in round trip")
	}
	want, _ := json.Marshal(resp.Trace)
	got, _ := json.Marshal(back.Trace)
	if !bytes.Equal(want, got) {
		t.Fatalf("trace changed in round trip:\nwant %s\ngot  %s", want, got)
	}
	if len(back.Trace.Children) != 2 {
		t.Fatalf("root children: %d, want 2", len(back.Trace.Children))
	}
	gm := back.Trace.Children[1].Children[0].Children[0]
	if gm.Rows == nil || *gm.Rows != 7 || gm.Workers != 2 || len(gm.Levels) != 3 || gm.Levels[1].Size != 42 ||
		gm.Levels[1].Backward || !gm.Levels[2].Backward || gm.Searches == nil || *gm.Searches != (trace.Searches{Both: 1, Forward: 2}) {
		t.Fatalf("GraphMatch node mangled: %+v", gm)
	}
}

// TestTraceRoundTripStream: the trailer frame carries the span tree
// and FoldStream folds it back into the buffered response shape.
func TestTraceRoundTripStream(t *testing.T) {
	tree := sampleTrace()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Header([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Batch([][]any{{int64(1)}, {int64(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Trailer(tree); err != nil {
		t.Fatal(err)
	}
	folded, batches, err := FoldStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 1 || folded.RowCount != 2 {
		t.Fatalf("fold: batches=%d rows=%d", batches, folded.RowCount)
	}
	if folded.Trace == nil {
		t.Fatal("trace lost in stream trailer")
	}
	want, _ := json.Marshal(tree)
	got, _ := json.Marshal(folded.Trace)
	if !bytes.Equal(want, got) {
		t.Fatalf("trace changed through stream:\nwant %s\ngot  %s", want, got)
	}
}

// TestUntracedEncodingUnchanged pins the compatibility contract: a
// response without a trace encodes without any trace key, and an
// untraced trailer frame stays byte-identical to the pre-trace format.
func TestUntracedEncodingUnchanged(t *testing.T) {
	resp := &QueryResponse{Columns: []string{"a"}, Rows: [][]any{{int64(1)}}, RowCount: 1}
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("trace")) {
		t.Fatalf("untraced response mentions trace: %s", data)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Trailer(nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"row_count\":0}\n" {
		t.Fatalf("untraced trailer frame changed: %q", got)
	}
}
