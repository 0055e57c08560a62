package main

// The load generator's HTTP client: one keep-alive connection per
// client, POST /query, and a response reader that separates
// time-to-first-rows from total latency without paying a full JSON
// decode for large streamed bodies.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// spanNode mirrors the wire form of internal/trace.Node; the benchmark
// decodes it from the response instead of importing the type, so it
// reads exactly what a user of the API reads.
type spanNode struct {
	Name     string      `json:"name"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"dur_us"`
	Rows     *int64      `json:"rows"`
	Batches  int64       `json:"batches"`
	Workers  int         `json:"workers"`
	Levels   []spanLevel `json:"levels"`
	Children []*spanNode `json:"children"`
}

type spanLevel struct {
	Level int64 `json:"level"`
	Size  int   `json:"size"`
}

type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// response is one decoded answer. Buffered bodies are decoded in full;
// streamed ones keep the header, the first rows frame (raw, decoded
// only when a value check asks for it), the row count and the trailer.
type response struct {
	status   int
	columns  []string
	rows     [][]any // buffered responses only; numbers are json.Number
	rowCount int
	frames   int    // streamed: number of rows frames
	first    []byte // streamed: the first rows frame, verbatim
	trace    *spanNode
	err      *wireError
	bytes    int
	ttfr     time.Duration // request sent -> first rows available
	latency  time.Duration // request sent -> body read and decoded
}

type client struct {
	http *http.Client
	url  string
	buf  *bufio.Reader
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{
		http: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		url:  base + "/query",
		buf:  bufio.NewReaderSize(nil, 256<<10),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

type bufferedBody struct {
	Columns  []string   `json:"columns"`
	Rows     [][]any    `json:"rows"`
	RowCount int        `json:"row_count"`
	Trace    *spanNode  `json:"trace"`
	Error    *wireError `json:"error"`
}

// do sends one POST /query and reads the whole answer. A transport
// failure is returned as an error; an HTTP or structured error is
// reported in the response for the caller to count.
func (c *client) do(body []byte) (*response, error) {
	start := time.Now()
	hr, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	r := &response{status: hr.StatusCode}
	if hr.Header.Get("Content-Type") == "application/x-ndjson" {
		err = c.readStream(hr.Body, r, start)
	} else {
		err = readBuffered(hr.Body, r)
		r.ttfr = time.Since(start)
	}
	r.latency = time.Since(start)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func readBuffered(body io.Reader, r *response) error {
	data, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	r.bytes = len(data)
	var b bufferedBody
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&b); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	r.columns, r.rows, r.rowCount, r.trace, r.err = b.Columns, b.Rows, b.RowCount, b.Trace, b.Error
	if len(b.Rows) != b.RowCount {
		return fmt.Errorf("row_count %d but %d rows", b.RowCount, len(b.Rows))
	}
	return nil
}

var (
	rowsFramePrefix    = []byte(`{"rows":[`)
	columnsFramePrefix = []byte(`{"columns":`)
)

// readStream consumes an NDJSON stream frame by frame. Rows frames are
// counted with countRows rather than decoded: the client shares two
// cores with the server, and a full decode of ~40 frames would measure
// encoding/json in the load generator, not gsqld.
func (c *client) readStream(body io.Reader, r *response, start time.Time) error {
	c.buf.Reset(body)
	sawHeader, sawTrailer := false, false
	for {
		line, err := readLine(c.buf)
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return err
		}
		r.bytes += len(line) + 1
		switch {
		case sawTrailer:
			return errors.New("stream: frame after trailer")
		case bytes.HasPrefix(line, rowsFramePrefix):
			if !sawHeader {
				return errors.New("stream: rows before header")
			}
			n, cerr := countRows(line[len(rowsFramePrefix)-1:])
			if cerr != nil {
				return cerr
			}
			if r.frames == 0 {
				r.ttfr = time.Since(start)
				r.first = append([]byte(nil), line...)
			}
			r.frames++
			r.rowCount += n
		case bytes.HasPrefix(line, columnsFramePrefix):
			var h struct {
				Columns []string `json:"columns"`
			}
			if err := json.Unmarshal(line, &h); err != nil {
				return fmt.Errorf("stream header: %w", err)
			}
			r.columns, sawHeader = h.Columns, true
		default:
			var t struct {
				RowCount *int       `json:"row_count"`
				Trace    *spanNode  `json:"trace"`
				Error    *wireError `json:"error"`
			}
			if err := json.Unmarshal(line, &t); err != nil {
				return fmt.Errorf("stream trailer: %w", err)
			}
			if t.RowCount == nil {
				return errors.New("stream: unrecognized frame")
			}
			sawTrailer = true
			r.trace, r.err = t.Trace, t.Error
			if t.Error == nil && *t.RowCount != r.rowCount {
				return fmt.Errorf("stream: trailer row_count %d, %d rows delivered", *t.RowCount, r.rowCount)
			}
		}
	}
	if !sawTrailer {
		return errors.New("stream: truncated (no trailer)")
	}
	if r.frames == 0 {
		r.ttfr = time.Since(start)
	}
	return nil
}

// readLine returns the next newline-terminated line without the
// newline, growing past the reader's buffer when a frame is larger.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		full := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			full = append(full, line...)
		}
		line = full
	}
	return bytes.TrimSuffix(line, []byte("\n")), err
}

// countRows counts the elements of the JSON array of row arrays that
// starts at data[0] == '[', tracking string literals and nesting so
// nested-table cells and strings containing brackets count correctly.
func countRows(data []byte) (int, error) {
	depth, rows := 0, 0
	inString, escaped := false, false
	for _, ch := range data {
		if inString {
			switch {
			case escaped:
				escaped = false
			case ch == '\\':
				escaped = true
			case ch == '"':
				inString = false
			}
			continue
		}
		switch ch {
		case '"':
			inString = true
		case '[':
			depth++
			if depth == 2 {
				rows++
			}
		case ']':
			depth--
			if depth == 0 {
				return rows, nil
			}
		}
	}
	return 0, errors.New("stream: unterminated rows array")
}

// decodeFirstFrame decodes the retained first rows frame of a streamed
// response (numbers as json.Number).
func (r *response) decodeFirstFrame() ([][]any, error) {
	var f struct {
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(r.first))
	dec.UseNumber()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("decoding rows frame: %w", err)
	}
	return f.Rows, nil
}
