package store

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"recache/internal/value"
)

func orderSchema() *value.Type {
	return value.TRecord(
		value.F("o_orderkey", value.TInt),
		value.F("o_totalprice", value.TFloat),
		value.F("o_priority", value.TString),
		value.F("lineitems", value.TList(value.TRecord(
			value.F("l_quantity", value.TInt),
			value.FOpt("l_discount", value.TFloat),
		))),
	)
}

func sampleOrders() []value.Value {
	return []value.Value{
		value.VRecord(value.VInt(1), value.VFloat(100.5), value.VString("HIGH"),
			value.VList(
				value.VRecord(value.VInt(3), value.VFloat(0.1)),
				value.VRecord(value.VInt(7), value.VNull),
			)),
		value.VRecord(value.VInt(2), value.VFloat(50.0), value.VString("LOW"),
			value.VList()), // empty list
		value.VRecord(value.VInt(3), value.VFloat(75.2), value.VString("MED"),
			value.VList(
				value.VRecord(value.VInt(1), value.VFloat(0.0)),
			)),
	}
}

func build(t *testing.T, layout Layout, schema *value.Type, recs []value.Value) Store {
	t.Helper()
	b, err := NewBuilder(layout, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

func collectFlat(t *testing.T, s Store, cols []int) [][]value.Value {
	t.Helper()
	var out [][]value.Value
	_, err := s.ScanFlat(cols, func(row []value.Value) error {
		out = append(out, append([]value.Value(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func collectRecords(t *testing.T, s Store, cols []int) [][]value.Value {
	t.Helper()
	var out [][]value.Value
	_, err := s.ScanRecords(cols, func(row []value.Value) error {
		out = append(out, append([]value.Value(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func collectNested(t *testing.T, s Store) []value.Value {
	t.Helper()
	var out []value.Value
	if err := s.ScanNested(func(rec value.Value) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// expected flattened rows computed through the value package directly.
func expectedFlat(t *testing.T, schema *value.Type, recs []value.Value, cols []int) [][]value.Value {
	t.Helper()
	all, err := value.LeafColumns(schema)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]value.Value
	for _, r := range recs {
		for _, row := range value.FlattenRecord(r, schema, all) {
			proj := make([]value.Value, len(cols))
			for i, c := range cols {
				proj[i] = row[c]
			}
			out = append(out, proj)
		}
	}
	return out
}

func TestNestedLayoutsScanFlat(t *testing.T) {
	schema := orderSchema()
	recs := sampleOrders()
	allCols := []int{0, 1, 2, 3, 4}
	want := expectedFlat(t, schema, recs, allCols)
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		s := build(t, layout, schema, recs)
		got := collectFlat(t, s, allCols)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s ScanFlat:\ngot  %v\nwant %v", layout, got, want)
		}
		if s.NumRecords() != 3 {
			t.Errorf("%s NumRecords = %d", layout, s.NumRecords())
		}
		if s.NumFlatRows() != 4 { // 2 + placeholder + 1
			t.Errorf("%s NumFlatRows = %d, want 4", layout, s.NumFlatRows())
		}
	}
}

func TestNestedLayoutsScanFlatProjection(t *testing.T) {
	schema := orderSchema()
	recs := sampleOrders()
	cols := []int{3, 0} // nested first, then parent: order must be respected
	want := expectedFlat(t, schema, recs, cols)
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		s := build(t, layout, schema, recs)
		got := collectFlat(t, s, cols)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s projected ScanFlat:\ngot  %v\nwant %v", layout, got, want)
		}
	}
}

func TestScanRecords(t *testing.T) {
	schema := orderSchema()
	recs := sampleOrders()
	cols := []int{0, 1}
	want := [][]value.Value{
		{value.VInt(1), value.VFloat(100.5)},
		{value.VInt(2), value.VFloat(50.0)},
		{value.VInt(3), value.VFloat(75.2)},
	}
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		s := build(t, layout, schema, recs)
		got := collectRecords(t, s, cols)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s ScanRecords:\ngot  %v\nwant %v", layout, got, want)
		}
		// Repeated columns must be rejected.
		if _, err := s.ScanRecords([]int{3}, func([]value.Value) error { return nil }); err == nil {
			t.Errorf("%s ScanRecords on repeated column should fail", layout)
		}
	}
}

func TestScanRecordsRowCounts(t *testing.T) {
	// Parquet reads short columns (rows scanned = records); columnar must
	// iterate all flattened rows. This asymmetry drives layout selection.
	schema := orderSchema()
	recs := sampleOrders()
	p := build(t, LayoutParquet, schema, recs)
	c := build(t, LayoutColumnar, schema, recs)
	ps, _ := p.ScanRecords([]int{0}, func([]value.Value) error { return nil })
	cs, _ := c.ScanRecords([]int{0}, func([]value.Value) error { return nil })
	if ps.RowsScanned != 3 {
		t.Errorf("parquet ScanRecords rows = %d, want 3", ps.RowsScanned)
	}
	if cs.RowsScanned != 4 {
		t.Errorf("columnar ScanRecords rows = %d, want 4 (all flat rows)", cs.RowsScanned)
	}
}

func TestScanNestedRoundTrip(t *testing.T) {
	schema := orderSchema()
	recs := sampleOrders()
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		s := build(t, layout, schema, recs)
		got := collectNested(t, s)
		if len(got) != len(recs) {
			t.Fatalf("%s round trip: %d records, want %d", layout, len(got), len(recs))
		}
		for i := range recs {
			if !got[i].Equal(recs[i]) {
				t.Errorf("%s record %d:\ngot  %v\nwant %v", layout, i, got[i], recs[i])
			}
		}
	}
}

func TestParquetSmallerThanColumnarOnNestedData(t *testing.T) {
	// With wide duplicated parents and many list elements, Parquet's
	// no-duplication striping must be smaller (the paper's compactness
	// claim, Fig. 6 discussion).
	schema := value.TRecord(
		value.F("id", value.TInt),
		value.F("payload", value.TString),
		value.F("items", value.TList(value.TRecord(value.F("q", value.TInt)))),
	)
	r := rand.New(rand.NewSource(42))
	var recs []value.Value
	for i := 0; i < 200; i++ {
		var elems []value.Value
		for j := 0; j < 8; j++ {
			elems = append(elems, value.VRecord(value.VInt(int64(r.Intn(100)))))
		}
		recs = append(recs, value.VRecord(
			value.VInt(int64(i)),
			value.VString("some-moderately-long-payload-string-XXXXXXXXXXXX"),
			value.VList(elems...)))
	}
	p := build(t, LayoutParquet, schema, recs)
	c := build(t, LayoutColumnar, schema, recs)
	if p.SizeBytes() >= c.SizeBytes() {
		t.Errorf("parquet %d bytes should be < columnar %d bytes", p.SizeBytes(), c.SizeBytes())
	}
}

func TestConvert(t *testing.T) {
	schema := orderSchema()
	recs := sampleOrders()
	src := build(t, LayoutParquet, schema, recs)
	dst, dur, err := Convert(src, LayoutColumnar)
	if err != nil {
		t.Fatal(err)
	}
	if dur < 0 {
		t.Error("negative conversion time")
	}
	if dst.Layout() != LayoutColumnar {
		t.Errorf("converted layout = %v", dst.Layout())
	}
	allCols := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(collectFlat(t, dst, allCols), collectFlat(t, src, allCols)) {
		t.Error("conversion changed contents")
	}
	// And back.
	back, _, err := Convert(dst, LayoutParquet)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectFlat(t, back, allCols), collectFlat(t, src, allCols)) {
		t.Error("round-trip conversion changed contents")
	}
}

func TestColumnIndexes(t *testing.T) {
	s := build(t, LayoutColumnar, orderSchema(), sampleOrders())
	idx, err := ColumnIndexes(s, []string{"lineitems.l_quantity", "o_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, []int{3, 0}) {
		t.Errorf("ColumnIndexes = %v", idx)
	}
	if _, err := ColumnIndexes(s, []string{"nope"}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestEmptyStore(t *testing.T) {
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		s := build(t, layout, orderSchema(), nil)
		if s.NumRecords() != 0 || s.NumFlatRows() != 0 {
			t.Errorf("%s empty store has records", layout)
		}
		if rows := collectFlat(t, s, []int{0}); len(rows) != 0 {
			t.Errorf("%s empty store emitted rows", layout)
		}
	}
}

// randomRecord generates a schema-conforming random order record.
func randomRecord(r *rand.Rand) value.Value {
	card := r.Intn(5)
	elems := make([]value.Value, card)
	for i := range elems {
		var disc value.Value = value.VNull
		if r.Intn(2) == 0 {
			disc = value.VFloat(float64(r.Intn(10)) / 10)
		}
		elems[i] = value.VRecord(value.VInt(int64(r.Intn(50))), disc)
	}
	return value.VRecord(
		value.VInt(int64(r.Intn(1000))),
		value.VFloat(r.Float64()*1000),
		value.VString([]string{"HIGH", "MED", "LOW"}[r.Intn(3)]),
		value.VList(elems...),
	)
}

// Property: for random record sets, all three scan paths agree across
// layouts and the nested round trip is exact.
func TestLayoutEquivalenceProperty(t *testing.T) {
	schema := orderSchema()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		recs := make([]value.Value, n)
		for i := range recs {
			recs[i] = randomRecord(r)
		}
		bp, _ := NewBuilder(LayoutParquet, schema)
		bc, _ := NewBuilder(LayoutColumnar, schema)
		for _, rec := range recs {
			if bp.Add(rec) != nil || bc.Add(rec) != nil {
				return false
			}
		}
		p, c := bp.Finish(), bc.Finish()

		cols := []int{0, 3, 4}
		var pf, cf [][]value.Value
		if _, err := p.ScanFlat(cols, func(row []value.Value) error {
			pf = append(pf, append([]value.Value(nil), row...))
			return nil
		}); err != nil {
			return false
		}
		if _, err := c.ScanFlat(cols, func(row []value.Value) error {
			cf = append(cf, append([]value.Value(nil), row...))
			return nil
		}); err != nil {
			return false
		}
		if !reflect.DeepEqual(pf, cf) {
			return false
		}
		// Nested round trip through parquet.
		i := 0
		ok := true
		_ = p.ScanNested(func(rec value.Value) error {
			if !rec.Equal(recs[i]) {
				ok = false
			}
			i++
			return nil
		})
		return ok && i == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScanStatsPopulated(t *testing.T) {
	schema := orderSchema()
	r := rand.New(rand.NewSource(1))
	var recs []value.Value
	for i := 0; i < 2000; i++ {
		recs = append(recs, randomRecord(r))
	}
	p := build(t, LayoutParquet, schema, recs)
	st, err := p.ScanFlat([]int{0, 3}, func([]value.Value) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.DataNanos <= 0 {
		t.Error("parquet scan DataNanos should be positive")
	}
	if st.ComputeNanos <= 0 {
		t.Error("parquet scan ComputeNanos should be positive (FSM assembly)")
	}
	c := build(t, LayoutColumnar, schema, recs)
	cst, err := c.ScanFlat([]int{0, 3}, func([]value.Value) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cst.ComputeNanos != 0 {
		t.Error("columnar scan should report zero compute cost")
	}
	var agg ScanStats
	agg.Add(st)
	agg.Add(cst)
	if agg.RowsScanned != st.RowsScanned+cst.RowsScanned {
		t.Error("ScanStats.Add wrong")
	}
}

// Property: the vector-level conversions produce stores whose contents are
// identical to a rebuild through nested records.
func TestConvertMatchesRebuild(t *testing.T) {
	schema := orderSchema()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		recs := make([]value.Value, n)
		for i := range recs {
			recs[i] = randomRecord(r)
		}
		for _, from := range []Layout{LayoutParquet, LayoutColumnar} {
			to := LayoutColumnar
			if from == LayoutColumnar {
				to = LayoutParquet
			}
			src, err := NewBuilder(from, schema)
			if err != nil {
				return false
			}
			for _, rec := range recs {
				if src.Add(rec) != nil {
					return false
				}
			}
			srcStore := src.Finish()
			fast, _, err := Convert(srcStore, to)
			if err != nil {
				return false
			}
			// Rebuild through nested records for comparison.
			gb, _ := NewBuilder(to, schema)
			if err := srcStore.ScanNested(func(rec value.Value) error { return gb.Add(rec) }); err != nil {
				return false
			}
			gen := gb.Finish()
			if fast.NumRecords() != gen.NumRecords() || fast.NumFlatRows() != gen.NumFlatRows() {
				return false
			}
			cols := []int{0, 1, 2, 3, 4}
			var a, b [][]value.Value
			if _, err := fast.ScanFlat(cols, func(row []value.Value) error {
				a = append(a, append([]value.Value(nil), row...))
				return nil
			}); err != nil {
				return false
			}
			if _, err := gen.ScanFlat(cols, func(row []value.Value) error {
				b = append(b, append([]value.Value(nil), row...))
				return nil
			}); err != nil {
				return false
			}
			if !reflect.DeepEqual(a, b) {
				return false
			}
			// Record granularity must agree too.
			a, b = nil, nil
			if _, err := fast.ScanRecords([]int{0, 1}, func(row []value.Value) error {
				a = append(a, append([]value.Value(nil), row...))
				return nil
			}); err != nil {
				return false
			}
			if _, err := gen.ScanRecords([]int{0, 1}, func(row []value.Value) error {
				b = append(b, append([]value.Value(nil), row...))
				return nil
			}); err != nil {
				return false
			}
			if !reflect.DeepEqual(a, b) {
				return false
			}
			// And the nested round trip through the fast-converted store.
			i := 0
			ok2 := true
			_ = fast.ScanNested(func(rec value.Value) error {
				if !rec.Equal(recs[i]) {
					ok2 = false
				}
				i++
				return nil
			})
			if !ok2 || i != len(recs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A flat schema converts by the same typed copies as a nested one (a
// disk-tier re-admission hands a flat entry back in the Parquet layout), and
// a store already in the requested layout is returned itself, not copied.
func TestConvertFlatSchema(t *testing.T) {
	schema := value.TRecord(value.F("a", value.TInt), value.F("s", value.TString))
	recs := []value.Value{
		value.VRecord(value.VInt(1), value.VString("x")),
		value.VRecord(value.VNull, value.VString("y")),
	}
	colSt := build(t, LayoutColumnar, schema, recs)
	want := collectFlat(t, colSt, []int{0, 1})
	parSt, _, err := Convert(colSt, LayoutParquet)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := Convert(parSt, LayoutColumnar)
	if err != nil {
		t.Fatal(err)
	}
	if parSt.Layout() != LayoutParquet || back.Layout() != LayoutColumnar {
		t.Errorf("layouts = %v, %v", parSt.Layout(), back.Layout())
	}
	if got := collectFlat(t, parSt, []int{0, 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("columnar→parquet changed contents: %v", got)
	}
	if got := collectFlat(t, back, []int{0, 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("columnar→parquet→columnar changed contents: %v", got)
	}
	for _, s := range []Store{colSt, parSt} {
		same, dur, err := Convert(s, s.Layout())
		if err != nil || same != s || dur != 0 {
			t.Errorf("Convert(%v store, %v) = (%p, %v, %v), want the store itself", s.Layout(), s.Layout(), same, dur, err)
		}
	}
	if _, _, err := Convert(colSt, Layout(9)); err == nil {
		t.Error("Convert to an unknown layout must fail")
	}
}
