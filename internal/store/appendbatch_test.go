package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"recache/internal/value"
)

// boolFlatSchema covers all four primitive kinds, every column nullable.
func boolFlatSchema() *value.Type {
	return value.TRecord(
		value.F("a", value.TInt),
		value.FOpt("d", value.TFloat),
		value.F("s", value.TString),
		value.F("ok", value.TBool),
	)
}

func rcs(t testing.TB, st Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteParquet(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allColumns opens a per-record cursor over every column of a flat store.
func allColumns(t testing.TB, st Store) *BatchCursor {
	t.Helper()
	idx := make([]int, len(st.Columns()))
	for i := range idx {
		idx[i] = i
	}
	cur, err := st.BatchCursor(false, idx)
	if err != nil {
		t.Fatalf("%s store serves no per-record batches: %v", st.Layout(), err)
	}
	return cur
}

// TestAppendBatchMatchesAdd builds the same rows twice — gapped selections
// of a source store's batches through AppendBatch, interleaved with the odd
// record through Add, versus Add alone — and requires identical RCS bytes
// and identical records, with and without NULLs in the source.
func TestAppendBatchMatchesAdd(t *testing.T) {
	schema := boolFlatSchema()
	for _, nulls := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		recs := make([]value.Value, 2500)
		for i := range recs {
			vals := []value.Value{
				value.VInt(int64(r.Intn(1000))),
				value.VFloat(float64(r.Intn(100)) / 4),
				value.VString([]string{"x", "yy", "", "zzz"}[r.Intn(4)]),
				value.VBool(r.Intn(2) == 0),
			}
			if nulls {
				for c := range vals {
					// Column 0 keeps a long all-valid run so one batch range
					// takes the whole-word path beside the per-entry one.
					if (c > 0 || i > 1200) && r.Intn(5) == 0 {
						vals[c] = value.VNull
					}
				}
			}
			recs[i] = value.VRecord(vals...)
		}
		for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
			src := build(t, layout, schema, recs)
			cur := allColumns(t, src)
			batched, err := NewBuilder(LayoutParquet, schema)
			if err != nil {
				t.Fatal(err)
			}
			added, err := NewBuilder(LayoutParquet, schema)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]int32, 700) // not a multiple of 64: batches start mid-word
			for sel := cur.Next(buf); sel != nil; sel = cur.Next(buf) {
				kept := sel[:0]
				for _, row := range sel {
					if r.Intn(3) > 0 {
						kept = append(kept, row)
					}
				}
				if err := batched.AppendBatch(cur.Cols, kept); err != nil {
					t.Fatal(err)
				}
				for _, row := range kept {
					if err := added.Add(recs[row]); err != nil {
						t.Fatal(err)
					}
				}
				extra := recs[r.Intn(len(recs))]
				if err := batched.Add(extra); err != nil {
					t.Fatal(err)
				}
				if err := added.Add(extra); err != nil {
					t.Fatal(err)
				}
			}
			got, want := batched.Finish(), added.Finish()
			if !bytes.Equal(rcs(t, got), rcs(t, want)) {
				t.Errorf("nulls=%v from %s: AppendBatch-built RCS bytes differ from the Add-built store's", nulls, layout)
			}
			if !reflect.DeepEqual(collectNested(t, got), collectNested(t, want)) {
				t.Errorf("nulls=%v from %s: records differ", nulls, layout)
			}
			if got.SizeBytes() != want.SizeBytes() || got.NumRecords() != want.NumRecords() {
				t.Errorf("nulls=%v from %s: size %d/%d records %d/%d", nulls, layout,
					got.SizeBytes(), want.SizeBytes(), got.NumRecords(), want.NumRecords())
			}
		}
	}
}

// A null entry's typed slot may hold anything in a decoded (spill, replica)
// source; AppendBatch stores a null the way Add does, so the bytes agree.
func TestAppendBatchZeroesNullSlots(t *testing.T) {
	schema := value.TRecord(value.F("a", value.TInt), value.F("s", value.TString))
	ints := &Vec{Kind: value.Int, Ints: []int64{7, 99, 8}}
	strs := &Vec{Kind: value.String, Strs: []string{"x", "junk", "z"}}
	for i := 0; i < 3; i++ {
		ints.Nulls.Append(i == 1)
		strs.Nulls.Append(i == 1)
	}
	b, err := NewBuilder(LayoutParquet, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch([]*Vec{ints, strs}, []int32{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	want := build(t, LayoutParquet, schema, []value.Value{
		value.VRecord(value.VInt(7), value.VString("x")),
		value.VRecord(value.VNull, value.VNull),
		value.VRecord(value.VInt(8), value.VString("z")),
	})
	if !bytes.Equal(rcs(t, b.Finish()), rcs(t, want)) {
		t.Error("garbage under a null bit leaked into the RCS bytes")
	}
}

// A source vector of another kind converts value by value, as Add would.
func TestAppendBatchKindDrift(t *testing.T) {
	schema := value.TRecord(value.F("f", value.TFloat))
	ints := &Vec{Kind: value.Int, Ints: []int64{3, 0}}
	ints.Nulls.Append(false)
	ints.Nulls.Append(true)
	b, err := NewBuilder(LayoutParquet, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch([]*Vec{ints}, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	want := build(t, LayoutParquet, schema, []value.Value{
		value.VRecord(value.VInt(3)), value.VRecord(value.VNull),
	})
	if !bytes.Equal(rcs(t, b.Finish()), rcs(t, want)) {
		t.Error("int vector appended to a float column differs from Add")
	}
}

func TestAppendBatchRejects(t *testing.T) {
	nested, err := NewBuilder(LayoutParquet, orderSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := nested.AppendBatch(make([]*Vec, 5), []int32{0}); err == nil {
		t.Error("AppendBatch accepted 5 vectors for the 4 fields of a nested schema")
	}
	flat, err := NewBuilder(LayoutParquet, boolFlatSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.AppendBatch([]*Vec{NewVec(value.Int)}, []int32{0}); err == nil {
		t.Error("AppendBatch accepted 1 vector for 4 columns")
	}
}

// AppendNative must box exactly what ScanNested reassembles, NULLs as nil,
// and keep the rows of one call from overwriting each other on append.
func TestAppendNativeMatchesScanNested(t *testing.T) {
	schema := boolFlatSchema()
	r := rand.New(rand.NewSource(3))
	recs := make([]value.Value, 1500)
	for i := range recs {
		recs[i] = value.VRecord(value.VInt(int64(i)), value.VNull,
			value.VString([]string{"x", "yy"}[r.Intn(2)]), value.VBool(i%3 == 0))
		if i%4 == 0 {
			recs[i].L[1] = value.VFloat(float64(i) / 2)
		}
	}
	st := build(t, LayoutParquet, schema, recs)
	if !reflect.DeepEqual(nativeByColumn(t, st), nativeByRecord(t, st)) {
		t.Fatal("column decode differs from record decode")
	}
	rows := nativeByColumn(t, st)
	first := rows[0][0]
	rows[0] = append(rows[0], "spill")
	if rows[1][0] == "spill" || rows[0][0] != first {
		t.Error("appending to a row overwrote its neighbour in the slab")
	}
}

func native(v value.Value) any {
	switch v.Kind {
	case value.Int:
		return v.I
	case value.Float:
		return v.F
	case value.String:
		return v.S
	case value.Bool:
		return v.B
	}
	return nil
}

func nativeByColumn(t testing.TB, st Store) [][]any {
	cur := allColumns(t, st)
	var rows [][]any
	buf := make([]int32, BatchRows)
	for sel := cur.Next(buf); sel != nil; sel = cur.Next(buf) {
		rows = AppendNative(rows, cur.Cols, sel)
	}
	return rows
}

func nativeByRecord(t testing.TB, st Store) [][]any {
	var rows [][]any
	err := st.ScanNested(func(rec value.Value) error {
		row := make([]any, len(rec.L))
		for i, v := range rec.L {
			row[i] = native(v)
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// FuzzReadParquetBytes feeds the RCS decoder arbitrary bytes — spill
// files, replica payloads and every client result go through it. It must
// never panic, and whatever it accepts must be a store whose record
// reassembly works; that re-encodes, through an in-memory buffer and a
// stream sink alike, to one stream that decodes to the same records; and,
// for a flat schema, whose column-by-column decode (the client's result
// path) equals the record-by-record one.
func FuzzReadParquetBytes(f *testing.F) {
	flat := value.TRecord(
		value.F("id", value.TInt),
		value.F("price", value.TFloat),
		value.F("name", value.TString),
		value.F("ok", value.TBool),
	)
	schemas := []*value.Type{flat, orderSchema(), value.TRecord(value.F("x", value.TFloat))}
	seed := func(which uint8, recs []value.Value) {
		b, err := NewBuilder(LayoutParquet, schemas[which])
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range recs {
			if err := b.Add(rec); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(rcs(f, b.Finish()), which)
	}
	// The serial_test.go fixtures.
	seed(0, []value.Value{
		value.VRecord(value.VInt(1), value.VFloat(1.5), value.VString("a"), value.VBool(true)),
		value.VRecord(value.VInt(2), value.VNull, value.VString(""), value.VBool(false)),
		value.VRecord(value.VNull, value.VFloat(-3.25), value.VNull, value.VNull),
	})
	seed(0, nil)
	seed(1, sampleOrders())
	seed(1, nil)
	seed(2, []value.Value{value.VRecord(value.VFloat(0)), value.VRecord(value.VNull)})
	// Shapes the vector-at-a-time codec has edges for: a float vector longer
	// than one encode chunk, a length that ends mid null word (with NULLs in
	// that word), and a string column of empty strings only.
	long := make([]value.Value, maxChunk/8+100)
	for i := range long {
		long[i] = value.VRecord(value.VFloat(float64(i) / 3))
		if i%1000 == 999 {
			long[i] = value.VRecord(value.VNull)
		}
	}
	seed(2, long)
	partial := nullableFlatRecs(100)
	partial[97].L[1], partial[99].L[3] = value.VNull, value.VNull
	seed(0, partial)
	empty := make([]value.Value, 70)
	for i := range empty {
		empty[i] = value.VRecord(value.VInt(int64(i)), value.VFloat(1), value.VString(""), value.VBool(i%2 == 0))
	}
	seed(0, empty)

	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		schema := schemas[int(which)%len(schemas)]
		st, err := ReadParquetBytes(data, schema)
		if err != nil {
			return
		}
		byRecord := nativeByRecord(t, st)
		if len(byRecord) != st.NumRecords() {
			t.Fatalf("ScanNested emitted %d records, store says %d", len(byRecord), st.NumRecords())
		}
		again := rcs(t, st)
		var stream bytes.Buffer
		if err := WriteParquet(struct{ io.Writer }{&stream}, st); err != nil || !bytes.Equal(stream.Bytes(), again) {
			t.Fatalf("stream-sink encode differs from the in-memory one (err %v)", err)
		}
		st2, err := ReadParquetBytes(again, schema)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if a, b := renderNested(t, st), renderNested(t, st2); !reflect.DeepEqual(a, b) {
			t.Fatalf("re-encoded stream decodes to %v, first decode was %v", b, a)
		}
		if value.RepeatedField(schema) != nil {
			return
		}
		// DeepEqual treats NaN as unequal to itself; compare the rendering.
		if byColumn := nativeByColumn(t, st); !reflect.DeepEqual(renderRows(byColumn), renderRows(byRecord)) {
			t.Fatalf("column decode %v differs from record decode %v", byColumn, byRecord)
		}
	})
}

// renderNested renders every record of st, nested lists included; NaN
// renders as itself, so two renderings compare with DeepEqual.
func renderNested(t *testing.T, st Store) []string {
	var out []string
	for _, rec := range collectNested(t, st) {
		out = append(out, rec.String())
	}
	return out
}

func renderRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		for _, c := range row {
			out[i] += fmt.Sprintf("%T:%v|", c, c)
		}
	}
	return out
}
