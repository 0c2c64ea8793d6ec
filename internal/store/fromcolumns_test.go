package store

import (
	"crypto/sha256"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"recache/internal/value"
)

// stripe fills NewColumns vectors the way a raw-file kernel does — one entry
// per record in a non-repeated leaf, one per list element in a repeated one,
// the list length beside them — reading the records through value.Get and
// value.FlattenRecord rather than the builders' leaf paths.
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

// TestFromColumnsMatchesAdd: a store adopted from leaf vectors and list
// lengths is the store a Builder of the same layout yields for the same
// records — the same RCS bytes, the same rows (the records' own) from every
// cursor, the same size — and extends like one. A Striper fills the same vectors.
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
				sameStore(t, got, build(t, layout, schema, recs[:n]), recs[:n])

				end := min(n+100, len(recs))
				gotExt, ok, err := Extend(got, recs[n:end])
				wantExt, wantOK, _ := Extend(build(t, layout, schema, recs[:n]), recs[n:end])
				if err != nil || ok != wantOK {
					t.Fatalf("Extend(adopted %s store): ok=%v err=%v, a built one ok=%v", layout, ok, err, wantOK)
				}
				if ok {
					sameStore(t, gotExt, wantExt, recs[:end])
				}
			}
		}
	}
}

// sameStore holds got to want, the store a Builder made of recs, and both
// stores' cursors to recs themselves.
func sameStore(t *testing.T, got, want Store, recs []value.Value) {
	t.Helper()
	if got.Layout() != want.Layout() || got.NumRecords() != want.NumRecords() ||
		got.NumFlatRows() != want.NumFlatRows() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("store shape: %s %d/%d/%dB, want %s %d/%d/%dB",
			got.Layout(), got.NumRecords(), got.NumFlatRows(), got.SizeBytes(),
			want.Layout(), want.NumRecords(), want.NumFlatRows(), want.SizeBytes())
	}
	// Serialised the way the spill tier and replication serialise an entry:
	// in the Parquet layout, written as RCS.
	spilled := func(st Store) [sha256.Size]byte {
		pq, _, err := Convert(st, LayoutParquet)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(rcs(t, pq))
	}
	if spilled(got) != spilled(want) {
		t.Error("RCS bytes differ")
	}
	var cols, recCols []int
	for i := len(got.Columns()) - 1; i >= 0; i-- {
		cols = append(cols, i)
		if !got.Columns()[i].Repeated {
			recCols = append(recCols, i)
		}
	}
	schema := got.Schema()
	if !reflect.DeepEqual(collectFlat(t, got, cols), expectedFlat(t, schema, recs, cols)) {
		t.Error("flattened rows differ from the records' flattening")
	}
	if !reflect.DeepEqual(collectRecords(t, got, recCols), expectedRecords(t, schema, recs, recCols)) {
		t.Error("record rows differ from the records' fields")
	}
	if !reflect.DeepEqual(collectNested(t, got), collectNested(t, want)) {
		t.Error("ScanNested differs")
	}
	for _, flat := range []bool{true, false} {
		proj := recCols
		if flat {
			proj = cols
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
