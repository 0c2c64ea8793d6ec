package store

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"recache/internal/value"
)

// stripe fills NewColumns vectors the way a raw-file kernel does — one entry
// per record in a non-repeated leaf, one per list element in a repeated one,
// the list length beside them — reading the records through value.Get and
// value.FlattenRecord rather than the Striper's leaf paths.
func stripe(schema *value.Type, recs []value.Value) ([]*Vec, []int32) {
	cols, _ := value.LeafColumns(schema)
	vecs := NewColumns(schema)
	var lengths []int32
	list := value.RepeatedField(schema) != nil
	for _, rec := range recs {
		if list {
			lengths = append(lengths, int32(value.RecordCardinality(rec, schema)))
		}
		flat := value.FlattenRecord(rec, schema, cols)
		for ci, c := range cols {
			if !c.Repeated {
				vecs[ci].AppendVal(value.Get(rec, schema, c.Path))
				continue
			}
			for _, row := range flat {
				vecs[ci].AppendVal(row[ci])
			}
		}
	}
	return vecs, lengths
}

// nestedSchema has a sub-record, a list whose elements hold a sub-record,
// and a field after the list.
func nestedSchema() *value.Type {
	return value.TRecord(
		value.F("id", value.TInt),
		value.F("origin", value.TRecord(value.FOpt("country", value.TString), value.F("zip", value.TInt))),
		value.F("items", value.TList(value.TRecord(
			value.F("q", value.TInt),
			value.FOpt("p", value.TFloat),
			value.F("tag", value.TRecord(value.F("s", value.TString))),
		))),
		value.FOpt("flag", value.TBool),
	)
}

// randomRecords draws n records of boolFlatSchema or (nested) of
// nestedSchema: nulls in every leaf and, nested, null sub-records, null,
// empty and absent lists (a record cut short before its list).
func randomRecords(r *rand.Rand, nested bool, n int) []value.Value {
	maybe := func(v value.Value) value.Value {
		if r.Intn(6) == 0 {
			return value.VNull
		}
		return v
	}
	str := func() value.Value { return maybe(value.VString([]string{"x", "yy", "", "zzz"}[r.Intn(4)])) }
	recs := make([]value.Value, n)
	for i := range recs {
		if !nested {
			recs[i] = value.VRecord(maybe(value.VInt(int64(r.Intn(1000)))), maybe(value.VFloat(float64(r.Intn(100))/4)),
				str(), maybe(value.VBool(r.Intn(2) == 0)))
			continue
		}
		items := value.VNull
		if k := r.Intn(8); k > 0 {
			elems := make([]value.Value, k-1)
			for e := range elems {
				elems[e] = value.VRecord(maybe(value.VInt(int64(r.Intn(50)))), maybe(value.VFloat(float64(r.Intn(9)))),
					maybe(value.VRecord(str())))
			}
			items = value.VList(elems...)
		}
		origin := maybe(value.VRecord(str(), maybe(value.VInt(int64(r.Intn(99999))))))
		recs[i] = value.VRecord(value.VInt(int64(i)), origin, items, maybe(value.VBool(r.Intn(2) == 0)))
		if r.Intn(10) == 0 {
			recs[i].L = recs[i].L[:2] // the list and the flag absent
		}
	}
	return recs
}

// TestFromColumnsMatchesAdd: a Striper fills the leaf vectors stripe fills
// from the same records; a store adopted from them holds those records —
// every cursor yields their flattening and fields, and ScanNested yields
// records that stripe to the same vectors — and extends into the store
// adopted from the stripe of all the records, down to its RCS bytes and size.
func TestFromColumnsMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, nested := range []bool{false, true} {
		schema := boolFlatSchema()
		if nested {
			schema = nestedSchema()
		}
		recs := randomRecords(r, nested, 3000)
		for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
			for _, n := range []int{0, 1, 64, len(recs)} {
				vecs, lengths := stripe(schema, recs[:n])
				striper, err := NewStriper(schema)
				if err != nil {
					t.Fatal(err)
				}
				svecs, slengths := NewColumns(schema), []int32(nil)
				for _, rec := range recs[:n] {
					slengths = striper.Append(rec, svecs, slengths)
				}
				if !reflect.DeepEqual(svecs, vecs) || !slices.Equal(slengths, lengths) {
					t.Fatalf("%s, %d records: Striper's vectors differ from the records striped", schema, n)
				}
				got, err := FromColumns(schema, layout, vecs, lengths)
				if err != nil {
					t.Fatal(err)
				}
				holdsRecords(t, got, recs[:n])

				end := min(n+100, len(recs))
				ext, ok, err := Extend(got, recs[n:end])
				if err != nil || !ok {
					t.Fatalf("Extend(adopted %s store): ok=%v err=%v", layout, ok, err)
				}
				sameStore(t, ext, adopt(t, layout, schema, recs[:end]), recs[:end])
			}
		}
	}
}

// adopt is the store FromColumns makes of recs striped by stripe.
func adopt(t *testing.T, layout Layout, schema *value.Type, recs []value.Value) Store {
	t.Helper()
	vecs, lengths := stripe(schema, recs)
	st, err := FromColumns(schema, layout, vecs, lengths)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// holdsRecords holds st to recs: its cursors yield the records' flattening
// and fields, and the records ScanNested rebuilds stripe to the vectors recs
// stripe to.
func holdsRecords(t *testing.T, st Store, recs []value.Value) {
	t.Helper()
	var cols, recCols []int
	for i := len(st.Columns()) - 1; i >= 0; i-- {
		cols = append(cols, i)
		if !st.Columns()[i].Repeated {
			recCols = append(recCols, i)
		}
	}
	schema := st.Schema()
	if !reflect.DeepEqual(collectFlat(t, st, cols), expectedFlat(t, schema, recs, cols)) {
		t.Error("flattened rows differ from the records' flattening")
	}
	if !reflect.DeepEqual(collectRecords(t, st, recCols), expectedRecords(t, schema, recs, recCols)) {
		t.Error("record rows differ from the records' fields")
	}
	gotVecs, gotLengths := stripe(schema, collectNested(t, st))
	wantVecs, wantLengths := stripe(schema, recs)
	if !reflect.DeepEqual(gotVecs, wantVecs) || !slices.Equal(gotLengths, wantLengths) {
		t.Error("ScanNested's records differ from the records")
	}
}

// sameStore holds got to want — shape, size, RCS bytes, ScanNested and the
// columns and selections of both cursors — and both stores to recs.
func sameStore(t *testing.T, got, want Store, recs []value.Value) {
	t.Helper()
	if got.Layout() != want.Layout() || got.NumRecords() != want.NumRecords() ||
		got.NumFlatRows() != want.NumFlatRows() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("store shape: %s %d/%d/%dB, want %s %d/%d/%dB",
			got.Layout(), got.NumRecords(), got.NumFlatRows(), got.SizeBytes(),
			want.Layout(), want.NumRecords(), want.NumFlatRows(), want.SizeBytes())
	}
	if spilled(t, got) != spilled(t, want) {
		t.Error("RCS bytes differ")
	}
	holdsRecords(t, got, recs)
	holdsRecords(t, want, recs)
	if !reflect.DeepEqual(collectNested(t, got), collectNested(t, want)) {
		t.Error("ScanNested differs")
	}
	var recCols []int
	for i, c := range got.Columns() {
		if !c.Repeated {
			recCols = append(recCols, i)
		}
	}
	for _, flat := range []bool{true, false} {
		proj := recCols
		if flat {
			proj = make([]int, len(got.Columns()))
			for i := range proj {
				proj[i] = i
			}
		}
		gc, err1 := got.BatchCursor(flat, proj)
		wc, err2 := want.BatchCursor(flat, proj)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("BatchCursor(flat=%v): %v/%v", flat, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if gc.Rows != wc.Rows || !reflect.DeepEqual(gc.Cols, wc.Cols) {
			t.Errorf("BatchCursor(flat=%v): columns differ", flat)
		}
		if !reflect.DeepEqual(drainCursor(t, gc), drainCursor(t, wc)) {
			t.Errorf("BatchCursor(flat=%v): selections differ", flat)
		}
	}
}

// TestFromColumnsRejects: the vectors must be one per leaf column, of the
// leaves' kinds, as long as the records (or, repeated, their elements) the
// lengths count; lengths belong to a schema with a repeated field.
func TestFromColumnsRejects(t *testing.T) {
	listOfLists := value.TRecord(value.F("l", value.TList(value.TList(value.TInt))))
	if NewColumns(listOfLists) != nil {
		t.Error("NewColumns of a schema LeafColumns rejects: want nil")
	}
	schema := boolFlatSchema()
	if _, err := FromColumns(orderSchema(), LayoutParquet, NewColumns(schema), nil); err == nil {
		t.Error("FromColumns with another schema's vectors: want an error")
	}
	short := NewColumns(schema)
	short[0].AppendVal(value.VInt(1))
	if _, err := FromColumns(schema, LayoutColumnar, short, nil); err == nil {
		t.Error("FromColumns with columns of unequal length: want an error")
	}
	wrong := NewColumns(schema)
	wrong[0], wrong[1] = wrong[1], wrong[0]
	if _, err := FromColumns(schema, LayoutColumnar, wrong, nil); err == nil {
		t.Error("FromColumns with swapped kinds: want an error")
	}
	if _, err := FromColumns(schema, LayoutColumnar, NewColumns(schema), []int32{}); err == nil {
		t.Error("FromColumns with lengths for a flat schema: want an error")
	}
	vecs, lengths := stripe(orderSchema(), sampleOrders())
	lengths[0]++
	if _, err := FromColumns(orderSchema(), LayoutParquet, vecs, lengths); err == nil {
		t.Error("FromColumns with lengths that do not count the elements: want an error")
	}
}
