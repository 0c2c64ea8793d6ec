package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"recache/internal/value"
)

// roundTrip serializes st (converting to Parquet first if needed) and
// deserializes it back, failing the test on any error.
func roundTrip(t *testing.T, st Store) Store {
	t.Helper()
	p, _, err := Convert(st, LayoutParquet)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteParquet(&buf, p); err != nil {
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

// TestSpillRoundTripSize checks the deserialized store reports the same
// footprint the original did — the cache re-admits by this number.
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
}

// TestSpillRejectsVersion1: a stream written by a build that still carried
// repetition-level streams (magic RCS1) is rejected at its magic, not
// misread as the current format.
func TestSpillRejectsVersion1(t *testing.T) {
	for _, schema := range []*value.Type{orderSchema(), boolFlatSchema()} {
		raw := rcs(t, build(t, LayoutParquet, schema, nil))
		copy(raw, "RCS1")
		if _, err := ReadParquetBytes(raw, schema); err == nil || !strings.Contains(err.Error(), "bad spill magic") {
			t.Errorf("%s: an RCS1 stream decoded with err = %v, want a bad-magic error", schema, err)
		}
	}
}

// TestNestedParquetSize: a nested Parquet store costs its vectors and its
// list lengths, nothing more — built, converted, adopted or decoded.
func TestNestedParquetSize(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(5)), true, 500)
	built := build(t, LayoutParquet, nestedSchema(), recs)
	converted, _, err := Convert(build(t, LayoutColumnar, nestedSchema(), recs), LayoutParquet)
	if err != nil {
		t.Fatal(err)
	}
	vecs, lengths := stripe(nestedSchema(), recs)
	adopted, err := FromColumns(nestedSchema(), LayoutParquet, vecs, lengths)
	if err != nil {
		t.Fatal(err)
	}
	decoded := roundTrip(t, built)
	for name, st := range map[string]Store{"built": built, "converted": converted, "adopted": adopted, "decoded": decoded} {
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

// TestReadParquetDoesNotAliasInput pins what the disk tier's pooled read
// buffers and the client's frame buffer rest on: a decoded store keeps no
// reference into the stream it came from. The input is overwritten after
// the decode; the store must still scan exactly what a decode of pristine
// bytes does.
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
// Encoding into a reused buffer allocates the same at 2k and 20k rows, and
// decoding allocates three slices per column (vector, null words, values)
// plus one for a string column's bytes, which every value shares.
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
