package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"graphsql"
	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// boxed returns the rows of c as graphsql.Rows.NextBatch hands them out.
func boxed(c *storage.Chunk) [][]any {
	rows := make([][]any, c.NumRows())
	for i := range rows {
		rows[i] = make([]any, len(c.Cols))
		for j, col := range c.Cols {
			rows[i][j] = graphsql.Cell(col, i)
		}
	}
	return rows
}

// fuzzBytes hands out the fuzzer's input piece by piece, then zeros.
type fuzzBytes []byte

func (f *fuzzBytes) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzBytes) uint64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = f.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// str returns up to 15 arbitrary bytes as a string.
func (f *fuzzBytes) str() string {
	n := min(int(f.byte()%16), len(*f))
	s := string((*f)[:n])
	*f = (*f)[n:]
	return s
}

// specialFloats are the floats whose encoding has a boundary or no
// JSON form at all.
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324,
	1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
	math.MaxFloat64, -1.5, 1e308,
}

func (f *fuzzBytes) float() float64 {
	if b := f.byte(); b < 128 {
		return specialFloats[int(b)%len(specialFloats)]
	}
	return math.Float64frombits(f.uint64())
}

// value returns a non-NULL value of kind k (a path's edge cells).
func (f *fuzzBytes) value(k types.Kind) types.Value {
	switch k {
	case types.KindFloat:
		return types.NewFloat(f.float())
	case types.KindString:
		return types.NewString(f.str())
	case types.KindBool:
		return types.NewBool(f.byte()&1 == 1)
	case types.KindDate:
		return types.NewDate(int64(int16(f.uint64()))) // negative days too
	}
	return types.NewInt(int64(f.uint64()))
}

var fuzzKinds = []types.Kind{types.KindInt, types.KindBool, types.KindDate, types.KindFloat, types.KindString, types.KindPath}

// chunk builds a chunk of up to 7 columns and 15 rows from the input:
// every kind the engine stores, random NULL masks, and paths whose edge
// rows hold NULLs and floats without a JSON form.
func (f *fuzzBytes) chunk() *storage.Chunk {
	ncols, nrows := int(f.byte()%8), int(f.byte()%16)
	c := &storage.Chunk{}
	for range ncols {
		k := fuzzKinds[int(f.byte())%len(fuzzKinds)]
		nullable := f.byte()&1 == 1
		col := storage.NewColumn(k, nrows)
		for range nrows {
			switch {
			case nullable && f.byte()&3 == 0:
				col.AppendNull()
			case k == types.KindPath:
				p := &types.Path{Cols: []string{"s", "w"}, Kinds: []types.Kind{types.KindInt, types.KindFloat}}
				for range int(f.byte() % 3) {
					w := f.value(types.KindFloat)
					if f.byte()&7 == 0 {
						w = types.NewNull(types.KindFloat)
					}
					p.Rows = append(p.Rows, []types.Value{f.value(types.KindInt), w})
				}
				col.AppendPath(p)
			default:
				col.Append(f.value(k))
			}
		}
		c.Schema = append(c.Schema, storage.ColMeta{Name: "c", Kind: k})
		c.Cols = append(c.Cols, col)
	}
	if n := c.NumRows(); n > 0 && f.byte()&1 == 1 { // a view, as the cursor hands out
		lo := int(f.byte()) % n
		c = c.Slice(lo, lo+int(f.byte())%(n-lo+1))
	}
	return c
}

// FuzzAppendChunk holds AppendChunk to Append over the same rows boxed
// the way Rows.NextBatch boxes them: the same bytes after rows already
// held, the same error text, and the same rows kept on an error.
func FuzzAppendChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0, 0, 1, 1, 3, 0, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 6, 3, 1, 1, 0, 4, 0, 0, 2, 3, 0, 5, 0, 6, 1, 7, 0, 8, 1, 9, 0, 10})
	f.Add([]byte{1, 5, 4, 0, 5, '<', '&', 0xff, '"', '\\', 3, 0xe2, 0x80, 0xa8})
	f.Add([]byte{1, 5, 5, 1, 1, 2, 0, 1, 0, 1, 2, 1, 1, 1, 0, 0})
	f.Add([]byte{2, 3, 2, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 1})
	rng := rand.New(rand.NewPCG(1, 2))
	for range 64 { // every kind, nullable or not, in a pair of chunks
		seed := make([]byte, 384)
		for i := range seed {
			seed[i] = byte(rng.Uint32())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		held, c := in.chunk(), in.chunk()
		if len(held.Cols) != len(c.Cols) {
			held = &storage.Chunk{}
		}
		got, want := NewEncoded(nil), NewEncoded(nil)
		// An error here is compared below through the rows either kept.
		got.AppendChunk(held)
		want.Append(boxed(held))
		err := got.AppendChunk(c)
		wantErr := want.Append(boxed(c))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, Append's %v", err, wantErr)
		}
		if err != nil && !errors.As(err, new(*EncodeError)) {
			t.Fatalf("error %T, want *EncodeError", err)
		}
		if got.Len() != want.Len() || !bytes.Equal(got.window(0, got.Len()), want.window(0, want.Len())) || got.Size() != want.Size() {
			t.Fatalf("AppendChunk kept %d rows %s, Append %d rows %s", got.Len(), got.window(0, got.Len()), want.Len(), want.window(0, want.Len()))
		}
	})
}

// scanChunk is a 1,024-row int/int/float batch, the shape of a streamed
// filter scan's result, with weight(i) in row i's float cell.
func scanChunk(weight func(i int) float64) *storage.Chunk {
	const n = 1024
	src, dst, w := make([]int64, n), make([]int64, n), make([]float64, n)
	for i := range n {
		src[i], dst[i], w[i] = int64(i*7919), int64(1<<40+i), weight(i)
	}
	return &storage.Chunk{
		Schema: storage.Schema{{Name: "src", Kind: types.KindInt}, {Name: "dst", Kind: types.KindInt}, {Name: "weight", Kind: types.KindFloat}},
		Cols:   []*storage.Column{storage.ColumnFromInts(types.KindInt, src), storage.ColumnFromInts(types.KindInt, dst), storage.ColumnFromFloats(w)},
	}
}

// The weights of a scan chunk: full-precision floats (integers over
// three) take strconv's route; 4-decimal weights in [0.5, 5), the
// friends.weight column scan_stream returns, take appendFloat's
// scaled-integer branch.
func fullWeight(i int) float64  { return float64(i) / 3 }
func shortWeight(i int) float64 { return float64(5000+i*7919%45000) / 1e4 }

// TestAppendChunkZeroAllocs pins the result path's allocation floor:
// encoding a batch into a warmed Encoded allocates nothing, whichever
// route its floats take, and neither does writing a stream's complete
// frames once its buffers are warm.
func TestAppendChunkZeroAllocs(t *testing.T) {
	c := scanChunk(fullWeight)
	enc := NewEncoded(nil)
	for _, in := range []*storage.Chunk{c, scanChunk(shortWeight)} {
		if n := testing.AllocsPerRun(20, func() {
			enc.Reset()
			if err := enc.AppendChunk(in); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("AppendChunk of %d rows: %v allocs, want 0", in.NumRows(), n)
		}
	}
	sw := NewStreamWriter(io.Discard).Frames(NewEncoded(nil), 100, false)
	if n := testing.AllocsPerRun(20, func() {
		if err := sw.Chunk(c); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("streaming %d rows in frames: %v allocs, want 0", c.NumRows(), n)
	}
}

// TestChunkFramesAreFixedWindows: however the executor's batches fall,
// the frames of a stream are windows of frame rows of the result, the
// last one written by Flush. A stream that keeps its rows holds all of
// them at the end; one that never keeps them, or forgets them midway,
// writes the same bytes.
func TestChunkFramesAreFixedWindows(t *testing.T) {
	c := scanChunk(fullWeight).Slice(0, 23)
	all := NewEncoded(nil)
	if err := all.AppendChunk(c); err != nil {
		t.Fatal(err)
	}
	for _, frame := range []int{1, 2, 5, 23, 100} {
		for _, mode := range []string{"keep", "drop", "forget"} {
			var buf, want bytes.Buffer
			enc := NewEncoded(nil)
			sw := NewStreamWriter(&buf).Frames(enc, frame, mode != "drop")
			for i, lo := 0, 0; lo < c.NumRows(); i, lo = i+1, lo+4+lo%3 { // ragged batches
				if err := sw.Chunk(c.Slice(lo, min(lo+4+lo%3, c.NumRows()))); err != nil {
					t.Fatal(err)
				}
				if mode == "forget" && i == 2 {
					sw.Forget()
				}
			}
			if err := sw.Flush(); err != nil {
				t.Fatal(err)
			}
			ref := NewStreamWriter(&want)
			for lo := 0; lo < all.Len(); lo += frame {
				if err := ref.Rows(all, lo, min(lo+frame, all.Len())); err != nil {
					t.Fatal(err)
				}
			}
			if buf.String() != want.String() || sw.Sent() != c.NumRows() {
				t.Fatalf("frame %d, %s: sent %d\n%s\nwant\n%s", frame, mode, sw.Sent(), buf.String(), want.String())
			}
			if mode == "keep" && !bytes.Equal(enc.window(0, enc.Len()), all.window(0, all.Len())) {
				t.Fatalf("frame %d: kept rows %s, want %s", frame, enc.window(0, enc.Len()), all.window(0, all.Len()))
			}
			if mode != "keep" && frame < c.NumRows() && enc.Len() >= frame+7 {
				t.Fatalf("frame %d, %s: %d rows held at the end, want under a frame and a batch", frame, mode, enc.Len())
			}
		}
	}
}

// BenchmarkAppendChunk encodes a 1,024-row batch from its typed
// columns, with 4-decimal weights (short) and full-precision ones
// (full): both sides of appendFloat's scaled-integer test.
func BenchmarkAppendChunk(b *testing.B) {
	for _, bc := range []struct {
		name   string
		weight func(int) float64
	}{{"short", shortWeight}, {"full", fullWeight}} {
		b.Run(bc.name, func(b *testing.B) {
			c := scanChunk(bc.weight)
			enc := NewEncoded(nil)
			perRow(b, c.NumRows(), func() error {
				enc.Reset()
				return enc.AppendChunk(c)
			})
		})
	}
}

// BenchmarkAppendBoxed encodes the same rows the way the result path
// did before typed batches: boxed as Rows.NextBatch boxes them, then
// appended cell by cell.
func BenchmarkAppendBoxed(b *testing.B) {
	c := scanChunk(fullWeight)
	enc := NewEncoded(nil)
	perRow(b, c.NumRows(), func() error {
		enc.Reset()
		return enc.Append(boxed(c))
	})
}

// perRow runs op, which encodes rows rows, as the benchmark loop and
// reports ns/row and allocs/row.
func perRow(b *testing.B, rows int, op func() error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(b.N * rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/row")
}

// integral matches a JSON number written as an integer.
var integral = regexp.MustCompile(`^-?(0|[1-9][0-9]*)$`)

// FuzzDecodeRequest: no input panics the request decoder, and every
// argument of a decoded request is nil, bool, string, int64 or float64
// — int64 exactly when the JSON number is written as an integer in
// int64's range, the number's value either way.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"sql":"SELECT ?","args":[1, 2.5, "x", true, null, 9007199254740993]}`))
	f.Add([]byte(`{"sql":"q","args":[-0, 1e3, 1.0, 9223372036854775807, 9223372036854775808, -9223372036854775809]}`))
	f.Add([]byte(`{"sql":"q","args":[[1]]}`))
	f.Add([]byte(`{"sql":"q","args":[{"a":1}]} trailing`))
	f.Add([]byte(`{"sql":"q","args":[1e999]}`))
	f.Add([]byte(`{"sql":`))
	f.Add([]byte(`{"args":null,"ARGS":[7]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest[QueryRequest](bytes.NewReader(data))
		if err != nil {
			return
		}
		var raw struct {
			Args []json.RawMessage `json:"args"`
		}
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&raw); err != nil || len(raw.Args) != len(req.Args) {
			t.Fatalf("decoded %d args, the raw decode %d (%v)", len(req.Args), len(raw.Args), err)
		}
		for i, a := range req.Args {
			text := string(bytes.TrimSpace(raw.Args[i]))
			switch v := a.(type) {
			case nil, bool, string:
			case int64:
				if !integral.MatchString(text) || strconv.FormatInt(v, 10) != text && text != "-0" {
					t.Fatalf("argument %d: int64 %d from %s", i+1, v, text)
				}
			case float64:
				want, perr := strconv.ParseFloat(text, 64)
				if _, ierr := strconv.ParseInt(text, 10, 64); perr != nil || want != v || integral.MatchString(text) && ierr == nil {
					t.Fatalf("argument %d: float64 %v from %s", i+1, v, text)
				}
			default:
				t.Fatalf("argument %d: %T from %s", i+1, a, text)
			}
		}
	})
}
