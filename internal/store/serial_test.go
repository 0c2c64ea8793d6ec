package store

import (
	"bytes"
	"math"
	"reflect"
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
	got, err := ReadParquet(&buf, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSpillRoundTripAllLayouts spills every layout (converted through
// Parquet) and checks the flattened rows, record rows, and nested records
// all survive.
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
			if want, have := collectFlat(t, src, allCols), collectFlat(t, got, allCols); !reflect.DeepEqual(want, have) {
				t.Errorf("ScanFlat mismatch:\nwant %v\ngot  %v", want, have)
			}
			var recCols []int
			for i, c := range src.Columns() {
				if !c.Repeated {
					recCols = append(recCols, i)
				}
			}
			if want, have := collectRecords(t, src, recCols), collectRecords(t, got, recCols); !reflect.DeepEqual(want, have) {
				t.Errorf("ScanRecords mismatch:\nwant %v\ngot  %v", want, have)
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
	if _, err := ReadParquet(bytes.NewReader(raw[:len(raw)/2]), src.Schema()); err == nil {
		t.Error("truncated stream accepted")
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := ReadParquet(bytes.NewReader(bad), src.Schema()); err == nil {
		t.Error("bad magic accepted")
	}
	other := value.TRecord(value.F("id", value.TInt))
	if _, err := ReadParquet(bytes.NewReader(raw), other); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, err := ReadParquet(bytes.NewReader(append(append([]byte(nil), raw...), 0)), src.Schema()); err == nil {
		t.Error("trailing garbage accepted")
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
