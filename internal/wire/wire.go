// Package wire defines the structured result and error encoding shared
// by the gsqld HTTP server and the gsql CLI's -json and -stream modes.
// The encoding is deterministic — the same Result always marshals to
// the same bytes — which is what the server's differential tests lean
// on: an HTTP response body must be byte-identical to the wire encoding
// of the same query executed in-process.
//
// One encoder (encode.go) writes every cell once: for the buffered
// body, each NDJSON frame, the server's result cache (Encoded) and gsql.
// gsqld and gsql encode a result from the executor's typed batches
// (graphsql.Rows.NextChunk → Encoded.AppendChunk), never boxing a cell;
// the [][]any entry points — FromResult and QueryResponse.Encode,
// Encoded.Append, StreamWriter.Batch — serve embedding callers, the
// benchmark harness and tests. NDJSON frames are cut from the encoded
// result in fixed windows (StreamWriter.Frames), whatever the sizes of
// the batches it was encoded from.
//
// Cell mapping (lossless for everything the engine produces):
//
//	NULL              -> null
//	BIGINT            -> JSON number (int64, exact)
//	DOUBLE            -> JSON number (shortest round-trip form)
//	VARCHAR / BOOLEAN -> JSON string / bool
//	DATE              -> "YYYY-MM-DD" string
//	nested-table path -> {"columns": [...], "rows": [[...], ...]}
//
// Large results can alternatively be streamed as a sequence of
// newline-delimited frames (header, row batches, trailer) with the
// identical cell encoding — see stream.go — and hot statements can be
// registered once and re-executed by id via the PrepareRequest /
// ExecuteRequest payloads.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"graphsql"
	"graphsql/internal/fault"
	"graphsql/internal/storage"
	"graphsql/internal/trace"
)

// Error codes. Stable strings, part of the wire contract.
const (
	// CodeInvalidRequest marks malformed HTTP/JSON input.
	CodeInvalidRequest = "invalid_request"
	// CodeSQL marks parse, bind and execution errors.
	CodeSQL = "sql_error"
	// CodeCanceled marks a query stopped by client disconnect.
	CodeCanceled = "canceled"
	// CodeTimeout marks a query stopped by the server's deadline.
	CodeTimeout = "timeout"
	// CodeQueueFull marks admission rejection (queue at capacity).
	CodeQueueFull = "queue_full"
	// CodeQueueTimeout marks a query that waited in the admission queue
	// past the server's queue-wait deadline without starting. Distinct
	// from CodeTimeout: no execution happened, so retrying (after the
	// response's Retry-After hint) is always safe.
	CodeQueueTimeout = "queue_timeout"
	// CodePanic marks a query whose execution panicked server-side; the
	// panic was contained and the server keeps serving. The statement
	// may have partially applied if it was a write.
	CodePanic = "panic"
	// CodeUnknownGraph marks a request naming an unregistered graph.
	CodeUnknownGraph = "unknown_graph"
	// CodeInternal marks server-side failures (encoding, invariants).
	CodeInternal = "internal"
)

// ErrorCode is the wire code of a failure that names its own cause — a
// contained panic is CodePanic; an injected fault or a cell with no
// JSON encoding is CodeInternal — and fallback for any other.
func ErrorCode(err error, fallback string) string {
	switch {
	case errors.As(err, new(*graphsql.QueryPanicError)):
		return CodePanic
	case errors.As(err, new(*fault.InjectedError)), errors.As(err, new(*EncodeError)):
		return CodeInternal
	}
	return fallback
}

// Error is the structured error payload.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// QueryRequest is the POST /query payload.
type QueryRequest struct {
	// Graph names the target graph; empty means the server's default.
	Graph string `json:"graph,omitempty"`
	// Session is an opaque client-chosen session id; requests sharing
	// it share prepared plans and SET settings. Empty = one-shot.
	Session string `json:"session,omitempty"`
	// SQL is the statement text (? placeholders bind Args).
	SQL string `json:"sql"`
	// Args are the positional arguments. Decode with DecodeRequest so
	// integral numbers arrive as int64, not float64.
	Args []any `json:"args,omitempty"`
	// Workers caps this statement's worker budget (0 = inherit the
	// session setting, then the server default).
	Workers int `json:"workers,omitempty"`
	// TimeoutMillis bounds execution; 0 inherits the server default.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// Stream selects the chunked NDJSON response encoding (see
	// stream.go) instead of one buffered QueryResponse object.
	Stream bool `json:"stream,omitempty"`
	// BatchRows caps the rows per streamed batch frame (0 =
	// DefaultBatchRows, clamped to MaxBatchRows).
	BatchRows int `json:"batch_rows,omitempty"`
	// Trace requests the query's span tree (plan resolution, admission
	// wait, per-operator timings, solver frontier levels) in the
	// response: the `trace` field of the buffered QueryResponse, or of
	// the trailer frame when streaming.
	Trace bool `json:"trace,omitempty"`
}

// PrepareRequest is the POST /prepare payload: parse (and, for SELECT,
// bind and rewrite) a statement into the named session's plan cache and
// register it under a server-assigned statement id. Args optionally
// supply representative values for ? parameter kind inference.
type PrepareRequest struct {
	// Graph names the target graph; empty means the server's default.
	Graph string `json:"graph,omitempty"`
	// Session names the owning session; required (prepared statements
	// live in session state).
	Session string `json:"session"`
	// SQL is the statement text (? placeholders bind /execute args).
	SQL string `json:"sql"`
	// Args are optional representative arguments for kind inference.
	Args []any `json:"args,omitempty"`
}

// PrepareResponse reports a registered statement.
type PrepareResponse struct {
	StatementID string `json:"statement_id,omitempty"`
	NumParams   int    `json:"num_params"`
	Error       *Error `json:"error,omitempty"`
}

// ExecuteRequest is the POST /execute payload: run a statement
// registered by /prepare. The response is a QueryResponse (or a
// chunked stream when Stream is set), exactly like POST /query.
type ExecuteRequest struct {
	// Session names the owning session; required.
	Session string `json:"session"`
	// StatementID is the id /prepare returned.
	StatementID string `json:"statement_id"`
	// Args bind the statement's ? placeholders.
	Args []any `json:"args,omitempty"`
	// Workers, TimeoutMillis, Stream, BatchRows and Trace behave exactly
	// as on QueryRequest.
	Workers       int  `json:"workers,omitempty"`
	TimeoutMillis int  `json:"timeout_ms,omitempty"`
	Stream        bool `json:"stream,omitempty"`
	BatchRows     int  `json:"batch_rows,omitempty"`
	Trace         bool `json:"trace,omitempty"`
}

// QueryResponse is the POST /query result payload. Exactly one of
// (Columns+Rows) and Error is populated. Trace is attached only when
// the request set "trace": true; it never affects the row payload, so
// untraced responses stay byte-identical to earlier releases. Rows
// holds facade cells, or JSON values folded back by FoldStream.
type QueryResponse struct {
	Columns  []string    `json:"columns,omitempty"`
	Rows     [][]any     `json:"rows,omitempty"`
	RowCount int         `json:"row_count"`
	Trace    *trace.Node `json:"trace,omitempty"`
	Error    *Error      `json:"error,omitempty"`
}

// LoadRequest is the POST /graphs/{name}/load payload: a SQL script
// that builds the graph's dataset from scratch, plus optional graph
// indexes to prebuild. The server constructs a fresh database, runs the
// script, builds the indexes, and only then swaps it in — readers keep
// the previous generation until the swap (copy-on-swap).
type LoadRequest struct {
	Script  string      `json:"script"`
	Indexes []IndexSpec `json:"indexes,omitempty"`
}

// IndexSpec names one graph index to prebuild at load time.
type IndexSpec struct {
	Table string `json:"table"`
	Src   string `json:"src"`
	Dst   string `json:"dst"`
}

// LoadResponse reports a completed load.
type LoadResponse struct {
	Graph      string `json:"graph"`
	Generation int64  `json:"generation"`
	Tables     int    `json:"tables"`
	Error      *Error `json:"error,omitempty"`
}

// FromResult wraps a materialized query result as its wire form.
func FromResult(res *graphsql.Result) *QueryResponse {
	return &QueryResponse{Columns: res.Columns, Rows: res.Rows, RowCount: len(res.Rows)}
}

// FromError wraps an error into a response payload.
func FromError(code string, err error) *QueryResponse {
	return &QueryResponse{Error: &Error{Code: code, Message: err.Error()}}
}

// Encode marshals the response deterministically, each cell through
// the one cell encoder; a cell with no JSON encoding fails it with an
// *EncodeError.
func (r *QueryResponse) Encode() ([]byte, error) {
	rows := NewEncoded(nil)
	if err := rows.Append(r.Rows); err != nil {
		return nil, err
	}
	return r.appendTo(nil, rows.window(0, rows.Len()))
}

// Write writes a statement's outcome the way gsqld answers it — its
// rows, or err when it failed before it had any — as one buffered
// QueryResponse object and a newline, or as an NDJSON stream of
// DefaultBatchRows-row frames. Either is encoded from the executor's
// typed batches (Rows.NextChunk), with gsqld's loop. tr, when non-nil,
// is the query's trace. A failure ends the output in gsqld's shape and
// code and is returned.
func Write(w io.Writer, rows *graphsql.Rows, err error, stream bool, tr *trace.Trace) error {
	if err == nil && stream {
		defer rows.Close()
		sw := NewStreamWriter(w).Frames(NewEncoded(nil), DefaultBatchRows, false)
		if err = sw.Header(rows.Columns); err == nil {
			err = drain(rows, sw.Chunk)
		}
		if err == nil {
			err = sw.Flush()
		}
		if err != nil {
			sw.Fail(ErrorCode(err, CodeSQL), err)
			return err
		}
		return sw.Trailer(tr.Tree())
	}
	var body []byte
	if err == nil {
		defer rows.Close()
		enc := NewEncoded(rows.Columns)
		if err = drain(rows, enc.AppendChunk); err == nil {
			body, err = enc.AppendResponse(nil, tr.Tree())
		}
	}
	if err != nil {
		body, _ = FromError(ErrorCode(err, CodeSQL), err).Encode() // strings only
	}
	if _, werr := w.Write(append(body, '\n')); err == nil {
		err = werr
	}
	return err
}

// drain hands each executor batch of rows to add, until the result
// ends or either fails.
func drain(rows *graphsql.Rows, add func(*storage.Chunk) error) error {
	for {
		c, err := rows.NextChunk()
		if err != nil || c == nil {
			return err
		}
		if err = add(c); err != nil {
			return err
		}
	}
}

// DecodeRequest reads one request payload — a QueryRequest,
// PrepareRequest or ExecuteRequest — preserving integer arguments: a
// bare json.Unmarshal turns every number into float64, which would
// bind BIGINT vertex keys as DOUBLE. Numbers are decoded as json.Number
// and become int64 when integral, float64 otherwise; strings, bools and
// nulls pass through.
func DecodeRequest[T any, P interface {
	*T
	args() []any
}](r io.Reader) (*T, error) {
	req := new(T)
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(req); err != nil {
		return nil, err
	}
	args := P(req).args()
	for i, a := range args {
		switch t := a.(type) {
		case nil, string, bool:
		case json.Number:
			if n, err := t.Int64(); err == nil {
				args[i] = n
			} else if f, err := t.Float64(); err == nil {
				args[i] = f
			} else {
				return nil, fmt.Errorf("argument %d: invalid number %q", i+1, t.String())
			}
		default:
			return nil, fmt.Errorf("argument %d: unsupported JSON type %T", i+1, a)
		}
	}
	return req, nil
}

func (r *QueryRequest) args() []any   { return r.Args }
func (r *PrepareRequest) args() []any { return r.Args }
func (r *ExecuteRequest) args() []any { return r.Args }
