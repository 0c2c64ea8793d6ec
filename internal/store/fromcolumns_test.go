package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"recache/internal/value"
)

// typedAppend fills NewColumns vectors the way a raw-file kernel does: the
// typed slice and the null bitmap directly, no value.Value for a non-null.
func typedAppend(vecs []*Vec, rec value.Value) {
	for ci, v := range vecs {
		cell := rec.L[ci]
		if cell.Kind == value.Null {
			v.AppendVal(value.VNull)
			continue
		}
		switch v.Kind {
		case value.Int:
			v.Ints = append(v.Ints, cell.I)
		case value.Float:
			v.Floats = append(v.Floats, cell.F)
		case value.String:
			v.Strs = append(v.Strs, cell.S)
		case value.Bool:
			v.Bools = append(v.Bools, cell.B)
		}
		v.Nulls.Append(false)
	}
}

// TestFromColumnsMatchesAdd: a store adopted from typed vectors is the store
// a Builder yields for the same records — the same RCS1 bytes, the same rows
// from every scan and cursor, the same size — and extends like one.
func TestFromColumnsMatchesAdd(t *testing.T) {
	schema := boolFlatSchema()
	r := rand.New(rand.NewSource(11))
	recs := make([]value.Value, 3000)
	for i := range recs {
		vals := []value.Value{
			value.VInt(int64(r.Intn(1000))),
			value.VFloat(float64(r.Intn(100)) / 4),
			value.VString([]string{"x", "yy", "", "zzz"}[r.Intn(4)]),
			value.VBool(r.Intn(2) == 0),
		}
		for c := range vals {
			if r.Intn(6) == 0 {
				vals[c] = value.VNull
			}
		}
		recs[i] = value.VRecord(vals...)
	}
	for _, n := range []int{0, 1, 64, len(recs)} {
		vecs := NewColumns(schema)
		for _, rec := range recs[:n] {
			typedAppend(vecs, rec)
		}
		got, err := FromColumns(schema, vecs)
		if err != nil {
			t.Fatal(err)
		}
		want := build(t, LayoutColumnar, schema, recs[:n])
		sameStore(t, got, want)

		tail := recs[n:min(n+100, len(recs))]
		gotExt, ok, err := Extend(got, tail)
		if err != nil || !ok {
			t.Fatalf("Extend(adopted store): ok=%v err=%v", ok, err)
		}
		sameStore(t, gotExt, build(t, LayoutColumnar, schema, recs[:n+len(tail)]))
	}
}

func sameStore(t *testing.T, got, want Store) {
	t.Helper()
	if got.Layout() != want.Layout() || got.NumRecords() != want.NumRecords() ||
		got.NumFlatRows() != want.NumFlatRows() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("store shape: %s %d/%d/%dB, want %s %d/%d/%dB",
			got.Layout(), got.NumRecords(), got.NumFlatRows(), got.SizeBytes(),
			want.Layout(), want.NumRecords(), want.NumFlatRows(), want.SizeBytes())
	}
	// Serialised the way the spill tier and replication serialise a
	// columnar entry: converted to the Parquet layout, written as RCS1.
	spilled := func(st Store) []byte {
		pq, _, err := Convert(st, LayoutParquet)
		if err != nil {
			t.Fatal(err)
		}
		return rcs1(t, pq)
	}
	if !bytes.Equal(spilled(got), spilled(want)) {
		t.Error("RCS1 bytes differ")
	}
	cols := []int{3, 0, 2, 1}
	if !reflect.DeepEqual(collectFlat(t, got, cols), collectFlat(t, want, cols)) {
		t.Error("ScanFlat differs")
	}
	if !reflect.DeepEqual(collectRecords(t, got, cols), collectRecords(t, want, cols)) {
		t.Error("ScanRecords differs")
	}
	for _, flat := range []bool{true, false} {
		gc, ok1 := got.(BatchSource).BatchCursor(flat, cols)
		wc, ok2 := want.(BatchSource).BatchCursor(flat, cols)
		if !ok1 || !ok2 {
			t.Fatalf("BatchCursor(flat=%v): %v/%v", flat, ok1, ok2)
		}
		if gc.Rows != wc.Rows || !reflect.DeepEqual(gc.Cols, wc.Cols) {
			t.Errorf("BatchCursor(flat=%v): columns differ", flat)
		}
		if !reflect.DeepEqual(drainCursor(t, gc), drainCursor(t, wc)) {
			t.Errorf("BatchCursor(flat=%v): selections differ", flat)
		}
	}
}

// TestFromColumnsRejects: only a flat schema has one vector per field, and
// the vectors must be the schema's kinds at one length.
func TestFromColumnsRejects(t *testing.T) {
	if NewColumns(orderSchema()) != nil {
		t.Error("NewColumns of a nested schema: want nil")
	}
	schema := boolFlatSchema()
	if _, err := FromColumns(orderSchema(), NewColumns(schema)); err == nil {
		t.Error("FromColumns over a nested schema: want an error")
	}
	short := NewColumns(schema)
	short[0].AppendVal(value.VInt(1))
	if _, err := FromColumns(schema, short); err == nil {
		t.Error("FromColumns with columns of unequal length: want an error")
	}
	wrong := NewColumns(schema)
	wrong[0], wrong[1] = wrong[1], wrong[0]
	if _, err := FromColumns(schema, wrong); err == nil {
		t.Error("FromColumns with swapped kinds: want an error")
	}
}
