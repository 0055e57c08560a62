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
// where row_count counts the rows of the batch frames written before
// the error (a partial result the client must discard). A requested
// span tree rides in the trailer as "trace". Frames are classified by
// key; cells use exactly the buffered encoding, so folding the batches
// back together (FoldStream) reproduces the buffered response byte for
// byte. Each frame is flushed as it is written, so the response leaves
// the server incrementally.

import (
	"encoding/json"
	"fmt"
	"io"

	"graphsql/internal/fault"
	"graphsql/internal/storage"
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

// flusher is the subset of http.Flusher the writer uses; declared
// locally so the wire package stays free of net/http.
type flusher interface{ Flush() }

// StreamWriter emits a chunked response frame by frame, each built in
// one reused buffer. Methods must be called in protocol order: Header
// once, then batch frames, then exactly one of Trailer or Fail.
//
// A result's batch frames are cut from one Encoded (Frames): Chunk
// encodes each executor batch into it as it arrives and writes every
// complete window of frame rows, and Flush, on the trailer path, writes
// the last partial one. Frame boundaries are thus a pure function of
// the result and the frame size — never of the executor's batch
// boundaries — which keeps a stream byte-identical across batch sizes
// and cache replays. gsqld and gsql's -stream mode share this loop.
type StreamWriter struct {
	w     io.Writer
	src   *Encoded // the rows batch frames are cut from
	size  int      // rows per batch frame
	cut   int      // rows of src already in frames
	keep  bool     // keep src's rows once they are in frames
	rows  Encoded  // Batch's rows, reused
	frame []byte
	sent  int // rows in the batch frames written
}

// NewStreamWriter wraps a destination (typically an
// http.ResponseWriter, which is flushed after every frame).
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// Frames makes rows the result sw cuts batch frames of frame rows (at
// least one) from, and returns sw. rows may already hold the whole
// result (a cache hit, which Flush writes without touching rows) or be
// empty and filled by Chunk. Unless keep is set, Chunk drops rows from
// it once they are in frames, so a stream that keeps no copy of its
// result holds at most a frame and a batch of encoded rows.
func (sw *StreamWriter) Frames(rows *Encoded, frame int, keep bool) *StreamWriter {
	sw.src, sw.size, sw.cut, sw.keep = rows, frame, 0, keep
	return sw
}

// send writes frame, newline-terminated, and flushes.
func (sw *StreamWriter) send(frame []byte) error {
	sw.frame = append(frame, '\n')
	if _, err := sw.w.Write(sw.frame); err != nil {
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
	return sw.send(append(appendNames(append(sw.frame[:0], `{"columns":`...), columns), '}'))
}

// Chunk encodes one executor batch after the rows sw frames and writes
// each complete frame of them not yet written. A cell with no JSON
// encoding fails it with an *EncodeError, after the complete frames
// of the rows before that cell went out — the frames a stream cut in
// fixed windows from the start would have written before the window
// that holds the bad row.
func (sw *StreamWriter) Chunk(c *storage.Chunk) error {
	err := sw.src.AppendChunk(c)
	if werr := sw.frames(false); werr != nil {
		return werr
	}
	if !sw.keep {
		sw.src.discard(sw.cut)
		sw.cut = 0
	}
	return err
}

// Flush writes every framed row not yet written — the last, partial
// frame of a live result, or all of a stored one.
func (sw *StreamWriter) Flush() error { return sw.frames(true) }

// frames writes the rows of src not yet in a frame, size rows a frame;
// a partial last frame only when all is set.
func (sw *StreamWriter) frames(all bool) error {
	for n := sw.src.Len() - sw.cut; n >= sw.size || all && n > 0; n = sw.src.Len() - sw.cut {
		hi := sw.cut + min(n, sw.size)
		if err := sw.Rows(sw.src, sw.cut, hi); err != nil {
			return err
		}
		sw.cut = hi
	}
	return nil
}

// Forget stops keeping the rows: it drops those already in frames now,
// and Chunk drops later ones as they go out.
func (sw *StreamWriter) Forget() {
	sw.keep = false
	sw.src.discard(sw.cut)
	sw.cut = 0
}

// Sent returns the rows in the batch frames written so far.
func (sw *StreamWriter) Sent() int { return sw.sent }

// Batch encodes and writes one row batch as a frame. Empty batches are
// skipped.
func (sw *StreamWriter) Batch(rows [][]any) error {
	sw.rows.Reset()
	if err := sw.rows.Append(rows); err != nil {
		return err
	}
	return sw.Rows(&sw.rows, 0, sw.rows.Len())
}

// Rows writes rows [lo, hi) of an encoded result as one batch frame,
// without encoding them again. An empty window is skipped.
func (sw *StreamWriter) Rows(e *Encoded, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	if err := fault.Inject(fault.PointStreamEncode); err != nil {
		return err
	}
	if err := sw.send(append(append(append(sw.frame[:0], `{"rows":[`...), e.window(lo, hi)...), "]}"...)); err != nil {
		return err
	}
	sw.sent += hi - lo
	return nil
}

// Trailer writes the success trailer. tr, when non-nil, is the query's
// span tree (requested via "trace": true).
func (sw *StreamWriter) Trailer(tr *trace.Node) error {
	return sw.trailer(&QueryResponse{Trace: tr})
}

// Fail writes an error trailer carrying the rows delivered so far.
func (sw *StreamWriter) Fail(code string, err error) error {
	return sw.trailer(FromError(code, err))
}

// trailer writes the final frame: a buffered body without its rows.
func (sw *StreamWriter) trailer(r *QueryResponse) error {
	r.RowCount = sw.sent
	b, err := r.appendTo(sw.frame[:0], nil)
	if err != nil {
		return err
	}
	return sw.send(b)
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
