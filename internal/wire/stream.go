package wire

// Chunked result streaming. A streamed query response is a sequence of
// newline-delimited JSON frames (NDJSON, Content-Type
// application/x-ndjson) instead of one buffered QueryResponse object:
//
//	{"columns":["a","b"]}             header: exactly one, first
//	{"rows":[[1,2],[3,4]]}            batch: zero or more row batches
//	{"row_count":4}                   trailer: exactly one, last
//
// A failure after the header replaces the success trailer with
//
//	{"row_count":2,"error":{"code":"canceled","message":"..."}}
//
// where row_count reports the rows delivered before the error (a
// client must treat such a result as partial and discard it). Frames
// are classified by key: "columns" marks the header, "rows" a batch,
// "row_count" the trailer. Cells use exactly the encoding of the
// buffered QueryResponse (see the package comment), so folding the
// batches back together — FoldStream — reproduces the buffered
// response byte for byte; the server's differential tests lean on
// that equivalence.
//
// The writer emits one frame per Batch call and flushes after every
// frame when the destination supports it, so the response leaves the
// server incrementally: at no point does the full result set exist as
// one encoded blob server-side.

import (
	"encoding/json"
	"fmt"
	"io"

	"graphsql/internal/fault"
	"graphsql/internal/trace"
)

// StreamContentType is the Content-Type of chunked query responses.
const StreamContentType = "application/x-ndjson"

// DefaultBatchRows is the row-batch size used when a streaming request
// does not specify one.
const DefaultBatchRows = 1024

// MaxBatchRows caps client-requested batch sizes so one frame stays a
// bounded fraction of a large result.
const MaxBatchRows = 16384

// StreamHeader is the first frame of a chunked response.
type StreamHeader struct {
	Columns []string `json:"columns"`
}

// StreamBatch is one row-batch frame.
type StreamBatch struct {
	Rows [][]any `json:"rows"`
}

// StreamTrailer is the final frame: the total delivered row count and,
// on failure, the error that cut the stream short. When the request
// asked for a trace, the span tree rides in the trailer (it is only
// complete once the last row has been sent).
type StreamTrailer struct {
	RowCount int         `json:"row_count"`
	Trace    *trace.Node `json:"trace,omitempty"`
	Error    *Error      `json:"error,omitempty"`
}

// flusher is the subset of http.Flusher the writer uses; declared
// locally so the wire package stays free of net/http.
type flusher interface{ Flush() }

// StreamWriter emits a chunked response frame by frame. Methods must
// be called in protocol order: Header once, Batch any number of times,
// then exactly one of Trailer or Fail.
type StreamWriter struct {
	w    io.Writer
	enc  *json.Encoder
	sent int
}

// NewStreamWriter wraps a destination (typically an
// http.ResponseWriter, which is flushed after every frame).
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, enc: json.NewEncoder(w)}
}

func (sw *StreamWriter) frame(v any) error {
	if err := sw.enc.Encode(v); err != nil {
		return err
	}
	if f, ok := sw.w.(flusher); ok {
		f.Flush()
	}
	return nil
}

// Header writes the header frame.
func (sw *StreamWriter) Header(columns []string) error {
	if columns == nil {
		columns = []string{}
	}
	return sw.frame(&StreamHeader{Columns: columns})
}

// Batch encodes and writes one row batch (cells are converted with the
// same mapping as the buffered response). Empty batches are skipped.
func (sw *StreamWriter) Batch(rows [][]any) error {
	if len(rows) == 0 {
		return nil
	}
	if err := fault.Inject(fault.PointStreamEncode); err != nil {
		return err
	}
	enc := make([][]any, len(rows))
	for i, row := range rows {
		er := make([]any, len(row))
		for j, v := range row {
			er[j] = encodeCell(v)
		}
		enc[i] = er
	}
	sw.sent += len(rows)
	return sw.frame(&StreamBatch{Rows: enc})
}

// Trailer writes the success trailer. tr, when non-nil, is the query's
// span tree (requested via "trace": true).
func (sw *StreamWriter) Trailer(tr *trace.Node) error {
	return sw.frame(&StreamTrailer{RowCount: sw.sent, Trace: tr})
}

// Fail writes an error trailer carrying the rows delivered so far.
func (sw *StreamWriter) Fail(code string, err error) error {
	return sw.frame(&StreamTrailer{RowCount: sw.sent, Error: &Error{Code: code, Message: err.Error()}})
}

// FoldStream reads a complete chunked response and folds it back into
// the buffered QueryResponse form, returning the number of row-batch
// frames it saw. Numbers are preserved verbatim (json.Number), so
// re-encoding the folded response reproduces the bytes a buffered
// execution of the same query would have produced. A stream whose
// trailer carries an error folds into a QueryResponse with that Error
// (and the partial rows discarded), mirroring the buffered error shape.
func FoldStream(r io.Reader) (*QueryResponse, int, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	// frame is the union of all three frame shapes.
	type frame struct {
		Columns  *[]string   `json:"columns"`
		Rows     *[][]any    `json:"rows"`
		RowCount *int        `json:"row_count"`
		Trace    *trace.Node `json:"trace"`
		Error    *Error      `json:"error"`
	}
	out := &QueryResponse{}
	batches := 0
	sawHeader, sawTrailer := false, false
	for {
		var f frame
		if err := dec.Decode(&f); err == io.EOF {
			break
		} else if err != nil {
			return nil, batches, fmt.Errorf("stream: bad frame: %w", err)
		}
		switch {
		case sawTrailer:
			return nil, batches, fmt.Errorf("stream: frame after trailer")
		case f.Columns != nil:
			if sawHeader {
				return nil, batches, fmt.Errorf("stream: duplicate header")
			}
			sawHeader = true
			if len(*f.Columns) > 0 {
				out.Columns = *f.Columns
			}
		case f.Rows != nil:
			if !sawHeader {
				return nil, batches, fmt.Errorf("stream: batch before header")
			}
			batches++
			out.Rows = append(out.Rows, *f.Rows...)
		case f.RowCount != nil || f.Error != nil:
			sawTrailer = true
			out.Trace = f.Trace
			if f.Error != nil {
				// Partial rows are not a result; fold into the buffered
				// error shape.
				return &QueryResponse{Error: f.Error}, batches, nil
			}
			if f.RowCount == nil || *f.RowCount != len(out.Rows) {
				return nil, batches, fmt.Errorf("stream: trailer row_count %v != %d delivered rows", f.RowCount, len(out.Rows))
			}
			out.RowCount = *f.RowCount
		default:
			return nil, batches, fmt.Errorf("stream: unrecognized frame")
		}
	}
	if !sawTrailer {
		return nil, batches, fmt.Errorf("stream: truncated (no trailer)")
	}
	return out, batches, nil
}
