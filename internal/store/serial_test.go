package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"recache/internal/value"
)

// roundTrip serializes st (its Parquet form) and deserializes it back,
// failing the test on any error.
func roundTrip(t *testing.T, st Store) Store {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteParquet(&buf, formOf(st)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadParquetBytes(buf.Bytes(), st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSpillRoundTripAllLayouts spills every layout (converted through
// Parquet) and checks the decoded store's flattened and record rows against
// the records themselves.
func TestSpillRoundTripAllLayouts(t *testing.T) {
	nested := orderSchema()
	flat := value.TRecord(
		value.F("id", value.TInt),
		value.F("price", value.TFloat),
		value.F("name", value.TString),
		value.F("ok", value.TBool),
	)
	flatRecs := []value.Value{
		value.VRecord(value.VInt(1), value.VFloat(1.5), value.VString("a"), value.VBool(true)),
		value.VRecord(value.VInt(2), value.VNull, value.VString(""), value.VBool(false)),
		value.VRecord(value.VNull, value.VFloat(-3.25), value.VNull, value.VNull),
	}
	cases := []struct {
		name   string
		layout Layout
		schema *value.Type
		recs   []value.Value
	}{
		{"parquet-nested", LayoutParquet, nested, sampleOrders()},
		{"columnar-nested", LayoutColumnar, nested, sampleOrders()},
		{"parquet-flat", LayoutParquet, flat, flatRecs},
		{"columnar-flat", LayoutColumnar, flat, flatRecs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := build(t, tc.layout, tc.schema, tc.recs)
			got := roundTrip(t, src)
			if got.NumRecords() != src.NumRecords() || got.NumFlatRows() != src.NumFlatRows() {
				t.Fatalf("shape: got (%d recs, %d flat), want (%d, %d)",
					got.NumRecords(), got.NumFlatRows(), src.NumRecords(), src.NumFlatRows())
			}
			allCols := make([]int, len(src.Columns()))
			for i := range allCols {
				allCols[i] = i
			}
			if want, have := expectedFlat(t, tc.schema, tc.recs, allCols), collectFlat(t, got, allCols); !reflect.DeepEqual(want, have) {
				t.Errorf("flattened rows mismatch:\nwant %v\ngot  %v", want, have)
			}
			var recCols []int
			for i, c := range src.Columns() {
				if !c.Repeated {
					recCols = append(recCols, i)
				}
			}
			if want, have := expectedRecords(t, tc.schema, tc.recs, recCols), collectRecords(t, got, recCols); !reflect.DeepEqual(want, have) {
				t.Errorf("record rows mismatch:\nwant %v\ngot  %v", want, have)
			}
		})
	}
}

// TestSpillRoundTripFloatEdgeCases checks floats are bit-exact: NaN stays
// NaN and the sign of zero survives.
func TestSpillRoundTripFloatEdgeCases(t *testing.T) {
	schema := value.TRecord(value.F("x", value.TFloat))
	negZero := math.Copysign(0, -1)
	recs := []value.Value{
		value.VRecord(value.VFloat(math.NaN())),
		value.VRecord(value.VFloat(negZero)),
		value.VRecord(value.VFloat(0)),
		value.VRecord(value.VFloat(math.Inf(1))),
		value.VRecord(value.VFloat(math.Inf(-1))),
		value.VRecord(value.VNull),
	}
	src := build(t, LayoutParquet, schema, recs)
	got := roundTrip(t, src).(*parquetStore)
	want := src.(*parquetStore)
	for i := range want.flatVecs[0].Floats {
		wb := math.Float64bits(want.flatVecs[0].Floats[i])
		gb := math.Float64bits(got.flatVecs[0].Floats[i])
		if wb != gb {
			t.Errorf("row %d: float bits %x != %x", i, gb, wb)
		}
	}
	if !got.flatVecs[0].Nulls.Get(5) {
		t.Error("null lost in round trip")
	}
}

// TestSpillRoundTripEmpty checks a zero-record store survives.
func TestSpillRoundTripEmpty(t *testing.T) {
	for _, schema := range []*value.Type{
		orderSchema(),
		value.TRecord(value.F("id", value.TInt)),
	} {
		src := build(t, LayoutParquet, schema, nil)
		got := roundTrip(t, src)
		if got.NumRecords() != 0 || got.NumFlatRows() != 0 {
			t.Errorf("empty store round trip: %d recs, %d flat", got.NumRecords(), got.NumFlatRows())
		}
	}
}

// TestSpillRoundTripSize checks a copying decode reports the same
// footprint the original did: it owns exactly the vectors the original
// held. (A viewing decode is charged the same: TestViewStoreSizeIsItsVectors.)
func TestSpillRoundTripSize(t *testing.T) {
	src := build(t, LayoutParquet, orderSchema(), sampleOrders())
	got := roundTrip(t, src)
	if got.SizeBytes() != src.SizeBytes() {
		t.Errorf("SizeBytes: got %d, want %d", got.SizeBytes(), src.SizeBytes())
	}
}

// TestSpillRejectsCorruptStream checks truncation, bad magic, and schema
// mismatch are detected rather than producing a bogus store.
func TestSpillRejectsCorruptStream(t *testing.T) {
	src := build(t, LayoutParquet, orderSchema(), sampleOrders())
	var buf bytes.Buffer
	if err := WriteParquet(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadParquetBytes(raw[:len(raw)/2], src.Schema()); err == nil {
		t.Error("truncated stream accepted")
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := ReadParquetBytes(bad, src.Schema()); err == nil {
		t.Error("bad magic accepted")
	}
	other := value.TRecord(value.F("id", value.TInt))
	if _, err := ReadParquetBytes(raw, other); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, err := ReadParquetBytes(append(append([]byte(nil), raw...), 0), src.Schema()); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A directory entry moved by a word either way, or pointing past the
	// stream, is out of step with the sections: both decoders refuse it,
	// whichever leaf a projected read asks for.
	cols := len(AllLeaves(src.Schema()).Cols)
	for i := 0; i <= cols; i++ {
		at := 32 + 8*i
		for _, delta := range []int64{-8, 8, 1 << 40} {
			bad := bytes.Clone(raw)
			binary.LittleEndian.PutUint64(bad[at:], uint64(int64(binary.LittleEndian.Uint64(raw[at:]))+delta))
			if _, err := ReadParquetBytes(bad, src.Schema()); err == nil {
				t.Errorf("directory entry %d moved by %d: copying decode accepted it", i, delta)
			}
			for ci := range cols {
				leaves := Leaves{Cols: []int{ci}}
				if _, err := ReadParquetView(aligned(bad), src.Schema(), leaves); err == nil {
					t.Errorf("directory entry %d moved by %d: a read of leaf %d accepted it", i, delta, ci)
				}
			}
		}
	}
}

// TestSpillRejectsVersion1: a stream written by a build that still carried
// repetition-level streams (magic RCS1), one without the alignment pads
// (RCS2) or one without the column directory (RCS3) is rejected at its
// magic, not misread as the current format.
func TestSpillRejectsVersion1(t *testing.T) {
	for _, schema := range []*value.Type{orderSchema(), boolFlatSchema()} {
		for _, magic := range []string{"RCS1", "RCS2", "RCS3"} {
			raw := rcs(t, build(t, LayoutParquet, schema, nil))
			copy(raw, magic)
			if _, err := ReadParquetBytes(raw, schema); err == nil || !strings.Contains(err.Error(), "bad spill magic") {
				t.Errorf("%s: an %s stream decoded with err = %v, want a bad-magic error", schema, magic, err)
			}
			if _, err := ReadParquetView(aligned(raw), schema, AllLeaves(schema)); err == nil || !strings.Contains(err.Error(), "bad spill magic") {
				t.Errorf("%s: an %s stream decoded as views with err = %v, want a bad-magic error", schema, magic, err)
			}
		}
	}
}

// TestSpillRejectsNonzeroPadding: the alignment pads are zero bytes, so a
// stream has one encoding and a corrupt pad is caught.
func TestSpillRejectsNonzeroPadding(t *testing.T) {
	schema := value.TRecord(value.F("id", value.TInt))
	raw := rcs(t, build(t, LayoutParquet, schema, []value.Value{value.VRecord(value.VInt(7))}))
	// The header's pads are bytes 5–7 and 28–31; the directory (two
	// entries) ends at 48, and the column's flag and kind at 50, its pad at
	// 56. The section's closing pad is none: eight bytes of int.
	for _, off := range []int{5, 7, 28, 31, 50, 55} {
		bad := bytes.Clone(raw)
		bad[off] = 1
		if _, err := ReadParquetBytes(bad, schema); err == nil || !strings.Contains(err.Error(), "nonzero padding") {
			t.Errorf("pad byte %d set: err = %v, want a padding error", off, err)
		}
	}
}

// TestNestedParquetSize: a nested Parquet store costs its vectors and its
// list lengths, nothing more — built, kept under a columnar view, adopted
// or decoded.
func TestNestedParquetSize(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(5)), true, 500)
	built := build(t, LayoutParquet, nestedSchema(), recs)
	converted := formOf(build(t, LayoutColumnar, nestedSchema(), recs))
	vecs, lengths := stripe(nestedSchema(), recs)
	adopted, err := FromColumns(nestedSchema(), LayoutParquet, vecs, lengths)
	if err != nil {
		t.Fatal(err)
	}
	decoded := roundTrip(t, built)
	for name, st := range map[string]Store{"built": built, "under a view": converted, "adopted": adopted, "decoded": decoded} {
		p := st.(*parquetStore)
		want := int64(len(p.lengths)) * 4
		for ci := range p.cols {
			if v := p.flatVecs[ci]; v != nil {
				want += v.SizeBytes()
			}
			if v := p.repVecs[ci]; v != nil {
				want += v.SizeBytes()
			}
		}
		if got := st.SizeBytes(); got != want || len(p.lengths) != len(recs) {
			t.Errorf("%s: SizeBytes = %d, want %d (vectors + %d lengths)", name, got, want, len(p.lengths))
		}
	}
}

// nullableFlatRecs fills boolFlatSchema with n rows: every column NULL
// somewhere, strings of several lengths (empty ones included).
func nullableFlatRecs(n int) []value.Value {
	r := rand.New(rand.NewSource(int64(n)))
	recs := make([]value.Value, n)
	for i := range recs {
		recs[i] = value.VRecord(value.VInt(r.Int63n(1e6)-5e5), value.VFloat(r.NormFloat64()),
			value.VString(strings.Repeat("x", r.Intn(12))), value.VBool(r.Intn(2) == 0))
		if i%5 == 0 {
			recs[i].L[i%4] = value.VNull
		}
	}
	return recs
}

// TestReadParquetDoesNotAliasInput pins what the wire client's pooled frame
// buffers rest on: a store from the copying decoder keeps no reference into
// the stream it came from. The input is overwritten after the decode; the
// store must still scan exactly what a decode of pristine bytes does.
func TestReadParquetDoesNotAliasInput(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *value.Type
		recs   []value.Value
	}{
		{"flat", boolFlatSchema(), nullableFlatRecs(300)},
		{"nested", orderSchema(), sampleOrders()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pristine := rcs(t, build(t, LayoutParquet, tc.schema, tc.recs))
			data := bytes.Clone(pristine)
			got, err := ReadParquetBytes(data, tc.schema)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				data[i] = 0xFF
			}
			want, err := ReadParquetBytes(pristine, tc.schema)
			if err != nil {
				t.Fatal(err)
			}
			if w, g := collectNested(t, want), collectNested(t, got); !reflect.DeepEqual(w, g) {
				t.Errorf("records changed with the input:\nwant %v\ngot  %v", w, g)
			}
			allCols := make([]int, len(want.Columns()))
			for i := range allCols {
				allCols[i] = i
			}
			if w, g := expectedFlat(t, tc.schema, tc.recs, allCols), collectFlat(t, got, allCols); !reflect.DeepEqual(w, g) {
				t.Errorf("flat rows changed with the input:\nwant %v\ngot  %v", w, g)
			}
		})
	}
}

// aligned copies data to an 8-byte address, as a mapping's start is.
func aligned(data []byte) []byte {
	buf := bytesOf(make([]uint64, (len(data)+7)/8))
	copy(buf, data)
	return buf[:len(data)]
}

// readView decodes every leaf of data, already aligned, with the viewing
// decoder.
func readView(t testing.TB, data []byte, schema *value.Type) Store {
	t.Helper()
	st, err := ReadParquetView(data, schema, AllLeaves(schema))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// inside reports whether the memory of xs lies within buf.
func inside[T any](xs []T, buf []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(xs)))
	size := uintptr(len(xs)) * unsafe.Sizeof(*new(T))
	return len(xs) > 0 && p >= lo && p+size <= lo+uintptr(len(buf))
}

// TestReadParquetViewAliasesStream: the viewing decode makes the store's
// null words, ints, floats and list lengths views of the stream, each with
// cap == len so an append reallocates instead of writing into it, and
// copies its strings out of it. A projected read views the sections it
// read, and no more.
func TestReadParquetViewAliasesStream(t *testing.T) {
	flat := aligned(rcs(t, build(t, LayoutParquet, boolFlatSchema(), nullableFlatRecs(300))))
	p := readView(t, flat, boolFlatSchema()).(*parquetStore)
	ints, floats, strs := p.flatVecs[0], p.flatVecs[1], p.flatVecs[2]
	for name, ok := range map[string]bool{
		"null words": inside(ints.Nulls.words, flat) && cap(ints.Nulls.words) == len(ints.Nulls.words),
		"ints":       inside(ints.Ints, flat) && cap(ints.Ints) == len(ints.Ints),
		"floats":     inside(floats.Floats, flat) && cap(floats.Floats) == len(floats.Floats),
	} {
		if !ok {
			t.Errorf("%s: not a cap == len view of the stream", name)
		}
	}
	for i, s := range strs.Strs {
		if len(s) > 0 && inside(unsafe.Slice(unsafe.StringData(s), len(s)), flat) {
			t.Fatalf("string %d points into the stream", i)
		}
	}

	nested := aligned(rcs(t, build(t, LayoutParquet, orderSchema(), sampleOrders())))
	np := readView(t, nested, orderSchema()).(*parquetStore)
	if l := np.lengths; !inside(l, nested) || cap(l) != len(l) {
		t.Error("list lengths: not a cap == len view of the stream")
	}

	h, err := parseHeader(flat, boolFlatSchema())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadParquetView(flat, boolFlatSchema(), Leaves{Cols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	pp := st.(*parquetStore)
	if lo, hi := h.section(1); !inside(pp.flatVecs[1].Floats, flat[lo:hi]) {
		t.Errorf("a read of the section [%d, %d) views other bytes", lo, hi)
	}
	if pp.flatVecs[0] != nil || pp.flatVecs[2] != nil {
		t.Error("a read of one section holds other leaves")
	}
	if !vecsEqual(pp.flatVecs[1], p.flatVecs[1]) {
		t.Error("the projected read's floats differ from the whole read's")
	}

	// A stream at an odd address is copied, not viewed.
	odd := make([]byte, len(flat)+1)[1:]
	copy(odd, flat)
	op := readView(t, odd, boolFlatSchema()).(*parquetStore)
	if inside(op.flatVecs[0].Ints, odd) || !vecsEqual(op.flatVecs[0], ints) {
		t.Error("a misaligned stream was viewed, or copied wrong")
	}
}

// TestViewStoreSizeIsItsVectors: a store whose vectors are views of a
// stream is charged the vectors and list lengths it holds, as the same
// store decoded by copying is.
func TestViewStoreSizeIsItsVectors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *value.Type
		recs   []value.Value
	}{
		{"flat", boolFlatSchema(), nullableFlatRecs(300)},
		{"nested", orderSchema(), sampleOrders()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := aligned(rcs(t, build(t, LayoutParquet, tc.schema, tc.recs)))
			view := readView(t, data, tc.schema)
			if !inside(view.(*parquetStore).flatVecs[0].Ints, data) {
				t.Fatal("the stream was not viewed")
			}
			cp, err := ReadParquetBytes(data, tc.schema)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := view.SizeBytes(), cp.SizeBytes(); got != want {
				t.Errorf("SizeBytes = %d, want the copy's %d", got, want)
			}
		})
	}
}

// TestExtendReleasesAliasedBuffer: extending a store that views a stream
// copies out of the stream completely, so once the original is dropped the
// stream's buffer is unreachable — a cleanup registered on it runs — while
// the extension still scans every record.
func TestExtendReleasesAliasedBuffer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *value.Type
		recs   []value.Value
	}{
		{"flat", boolFlatSchema(), nullableFlatRecs(300)},
		{"nested", orderSchema(), sampleOrders()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			released := make(chan struct{})
			ext := extendView(t, tc.schema, tc.recs, released)
			deadline := time.After(10 * time.Second)
			for done := false; !done; {
				runtime.GC()
				select {
				case <-released:
					done = true
				case <-deadline:
					t.Fatal("the buffer stayed reachable after the original store was dropped")
				case <-time.After(10 * time.Millisecond):
				}
			}
			want := build(t, LayoutParquet, tc.schema, append(slices.Clone(tc.recs), tc.recs[:2]...))
			if a, b := renderNested(t, want), renderNested(t, ext); !reflect.DeepEqual(a, b) {
				t.Errorf("extension scans to\n%v\nwant\n%v", b, a)
			}
		})
	}
}

// extendView decodes recs as views of a stream buffer, registers a cleanup
// that closes released on that buffer, and returns an extension of the
// store by recs[:2]; the buffer and the original store are dropped on
// return.
func extendView(t *testing.T, schema *value.Type, recs []value.Value, released chan struct{}) Store {
	t.Helper()
	buf := aligned(rcs(t, build(t, LayoutParquet, schema, recs)))
	st := readView(t, buf, schema)
	if !inside(st.(*parquetStore).flatVecs[0].Ints, buf) && !inside(st.(*parquetStore).lengths, buf) {
		t.Fatal("the stream was not viewed")
	}
	runtime.AddCleanup(&buf[0], func(c chan struct{}) { close(c) }, released)
	ext, _, err := Extend(st, recs[:2])
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

// failWriter accepts the first left bytes written to it, then fails. It is
// deliberately not a *bytes.Buffer, so WriteParquet takes its file-sink path.
type failWriter struct {
	got  []byte
	left int
}

var errSinkFull = errors.New("sink full")

func (w *failWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.left)
	w.got = append(w.got, p[:n]...)
	w.left -= n
	if n < len(p) {
		return n, errSinkFull
	}
	return n, nil
}

// TestWriteParquetWriteErrors: a sink that fails after k bytes fails the
// encode, whatever k is — in the header, in a null-word or payload chunk,
// or in a string column — and a sink that takes everything gets the bytes
// an in-memory encode produces. The large store's vectors span several
// encode chunks and more than one bufio buffer.
func TestWriteParquetWriteErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		st     Store
		stride int
	}{
		{"flat", build(t, LayoutParquet, boolFlatSchema(), nullableFlatRecs(300)), 1},
		{"nested", build(t, LayoutParquet, orderSchema(), sampleOrders()), 1},
		{"large", tpchStore(t, tpchShapes[0].schema, 20000), 4093},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := rcs(t, tc.st)
			for k := 0; k < len(want); k += tc.stride {
				if err := WriteParquet(&failWriter{left: k}, tc.st); !errors.Is(err, errSinkFull) {
					t.Fatalf("sink failing after %d of %d bytes: err = %v", k, len(want), err)
				}
			}
			w := &failWriter{left: len(want)}
			if err := WriteParquet(w, tc.st); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.got, want) {
				t.Errorf("stream sink got %d bytes that differ from the in-memory encode's %d", len(w.got), len(want))
			}
		})
	}
}

// tpchShapes are the TPC-H shaped schemas the codec's allocation budget and
// benchmarks run on: lineitem's nine numeric columns, and orders' five
// beside a short string.
var tpchShapes = []struct {
	name   string
	schema *value.Type
}{
	{"lineitem", value.TRecord(
		value.F("l_orderkey", value.TInt), value.F("l_partkey", value.TInt),
		value.F("l_suppkey", value.TInt), value.F("l_linenumber", value.TInt),
		value.F("l_quantity", value.TInt), value.F("l_extendedprice", value.TFloat),
		value.F("l_discount", value.TFloat), value.F("l_tax", value.TFloat),
		value.F("l_shipdate", value.TInt),
	)},
	{"orders", value.TRecord(
		value.F("o_orderkey", value.TInt), value.F("o_custkey", value.TInt),
		value.F("o_totalprice", value.TFloat), value.F("o_orderdate", value.TInt),
		value.F("o_shippriority", value.TInt), value.F("o_orderpriority", value.TString),
	)},
}

// tpchStore builds a Parquet store of n random rows of a flat schema.
func tpchStore(tb testing.TB, schema *value.Type, n int) Store {
	tb.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	priorities := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	recs := make([]value.Value, n)
	for i := range recs {
		vals := make([]value.Value, len(schema.Fields))
		for j, f := range schema.Fields {
			switch f.Type.Kind {
			case value.Int:
				vals[j] = value.VInt(r.Int63n(1 << 24))
			case value.Float:
				vals[j] = value.VFloat(r.Float64() * 1e5)
			case value.String:
				vals[j] = value.VString(priorities[r.Intn(len(priorities))])
			}
		}
		recs[i] = value.VRecord(vals...)
	}
	return build(tb, LayoutParquet, schema, recs)
}

// TestRCSAllocs: the codec allocates per column, not per row or value.
// Encoding into a reused buffer allocates the same at 2k and 20k rows;
// a copying decode allocates three slices per column (vector, null words,
// values) plus one for a string column's bytes, which every value shares,
// and a viewing one only the vector, and a string column's headers and
// bytes.
func TestRCSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, shape := range tpchShapes {
		budget := float64(3*len(shape.schema.Fields) + 8)
		for _, n := range []int{2000, 20000} {
			st := tpchStore(t, shape.schema, n)
			var buf bytes.Buffer
			enc := testing.AllocsPerRun(5, func() {
				buf.Reset()
				if err := WriteParquet(&buf, st); err != nil {
					t.Fatal(err)
				}
			})
			if enc > 2 {
				t.Errorf("%s, %d rows: encode allocates %.0f times, want O(1)", shape.name, n, enc)
			}
			dec := testing.AllocsPerRun(5, func() {
				if _, err := ReadParquetBytes(buf.Bytes(), shape.schema); err != nil {
					t.Fatal(err)
				}
			})
			if dec > budget {
				t.Errorf("%s, %d rows: decode allocates %.0f times, want at most %.0f", shape.name, n, dec, budget)
			}
			data, all := aligned(buf.Bytes()), AllLeaves(shape.schema)
			view := testing.AllocsPerRun(5, func() {
				if _, err := ReadParquetView(data, shape.schema, all); err != nil {
					t.Fatal(err)
				}
			})
			if viewBudget := float64(len(shape.schema.Fields) + 6); view > viewBudget {
				t.Errorf("%s, %d rows: viewing decode allocates %.0f times, want at most %.0f", shape.name, n, view, viewBudget)
			}
		}
	}
}

// BenchmarkWriteParquet encodes 20k TPC-H shaped rows into a reused buffer
// (the server's result path) and through a stream sink (a spill write).
func BenchmarkWriteParquet(b *testing.B) {
	for _, shape := range tpchShapes {
		st := tpchStore(b, shape.schema, 20000)
		size := int64(len(rcs(b, st)))
		b.Run(shape.name+"/buffer", func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(size)
			b.ReportAllocs()
			for b.Loop() {
				buf.Reset()
				if err := WriteParquet(&buf, st); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/stream", func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for b.Loop() {
				if err := WriteParquet(io.Discard, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadParquetBytes decodes 20k TPC-H shaped rows (a disk hit).
func BenchmarkReadParquetBytes(b *testing.B) {
	for _, shape := range tpchShapes {
		data := rcs(b, tpchStore(b, shape.schema, 20000))
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ReadParquetBytes(data, shape.schema); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSpillRejectsNonParquet checks WriteParquet refuses other layouts.
func TestSpillRejectsNonParquet(t *testing.T) {
	schema := value.TRecord(value.F("id", value.TInt))
	src := build(t, LayoutColumnar, schema, []value.Value{value.VRecord(value.VInt(1))})
	if err := WriteParquet(&bytes.Buffer{}, src); err == nil {
		t.Error("columnar store accepted by WriteParquet")
	}
}
