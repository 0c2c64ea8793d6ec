package store

import (
	"fmt"
	"reflect"
	"testing"

	"recache/internal/value"
)

// --- Bitmap edges ---

func TestBitmapTrailingBitsWord(t *testing.T) {
	var b Bitmap
	// 130 entries: two full words plus a 2-bit trailing word. Nulls at the
	// word boundaries and in the trailing word.
	nulls := map[int]bool{0: true, 63: true, 64: true, 127: true, 129: true}
	for i := 0; i < 130; i++ {
		b.Append(nulls[i])
	}
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for i := 0; i < 130; i++ {
		if b.Get(i) != nulls[i] {
			t.Errorf("Get(%d) = %v, want %v", i, b.Get(i), nulls[i])
		}
	}
	if got := b.SizeBytes(); got != 3*8 {
		t.Errorf("SizeBytes = %d, want 24 (3 words)", got)
	}
}

func TestBitmapWordBoundaryGrowth(t *testing.T) {
	var b Bitmap
	// Exactly 64 entries must occupy one word; the 65th must grow cleanly
	// even when it is a zero bit (Append(false) at a fresh word must still
	// allocate it, or Get would index past the slice).
	for i := 0; i < 64; i++ {
		b.Append(i%2 == 0)
	}
	if b.SizeBytes() != 8 {
		t.Fatalf("64 entries should fit one word, got %d bytes", b.SizeBytes())
	}
	b.Append(false)
	if b.Get(64) {
		t.Error("entry 64 should be non-null")
	}
	if b.SizeBytes() != 16 {
		t.Errorf("65 entries should occupy two words, got %d bytes", b.SizeBytes())
	}
}

func TestBitmapAppendAfterClone(t *testing.T) {
	// Clone mid-word, then append to both sides: the partially-filled
	// trailing word must not alias. (The layout conversions' cloneCap relies
	// on this — a converted store's bitmap shares nothing with its source.)
	var src Bitmap
	for i := 0; i < 70; i++ {
		src.Append(i == 69)
	}
	dst := src.Clone()
	src.Append(true)
	dst.Append(false)
	if dst.Get(69) != true || dst.Get(70) != false {
		t.Errorf("clone bits wrong: Get(69)=%v Get(70)=%v", dst.Get(69), dst.Get(70))
	}
	if src.Get(70) != true {
		t.Errorf("source append lost: Get(70)=%v", src.Get(70))
	}
	// The appends above landed in the same word index on both bitmaps; if
	// Clone shared the trailing word, src's set bit would leak into dst.
	if dst.Len() != 71 || src.Len() != 71 {
		t.Fatalf("lens = %d, %d, want 71", dst.Len(), src.Len())
	}
}

func TestBitmapAnySel(t *testing.T) {
	var b Bitmap
	// 300 entries whose only nulls are entries 70..74, in word 1 (64..127).
	for i := 0; i < 300; i++ {
		b.Append(i >= 70 && i < 75)
	}
	for _, c := range []struct {
		sel  []int32
		want bool
	}{
		{nil, false},
		{[]int32{0, 5, 63}, false},      // word 0 only
		{[]int32{128, 200, 299}, false}, // words 2..4
		{[]int32{72}, true},             // a null itself
		{[]int32{76, 90, 127}, true},    // boundary word holds nulls outside the selection
		{[]int32{10, 200}, true},        // the range spans word 1
		{[]int32{63, 128}, true},        // so does this one, selecting neither null
	} {
		if got := b.AnySel(c.sel); got != c.want {
			t.Errorf("AnySel(%v) = %v, want %v", c.sel, got, c.want)
		}
	}
}

// --- Vec edges ---

func TestVecAllNull(t *testing.T) {
	for _, typ := range []*value.Type{value.TInt, value.TFloat, value.TString, value.TBool} {
		v := newVec(typ)
		for i := 0; i < 100; i++ {
			v.AppendVal(value.VNull)
		}
		if v.Len() != 100 {
			t.Fatalf("%s: Len = %d", typ, v.Len())
		}
		for i := 0; i < 100; i++ {
			if got := v.Get(i); got.Kind != value.Null {
				t.Fatalf("%s: Get(%d) = %v, want null", typ, i, got)
			}
		}
		// The typed slice still holds zero placeholders (alignment matters
		// for batch kernels, which index it before checking the bitmap).
		switch typ.Kind {
		case value.Int:
			if len(v.Ints) != 100 {
				t.Errorf("int placeholders = %d", len(v.Ints))
			}
		case value.Float:
			if len(v.Floats) != 100 {
				t.Errorf("float placeholders = %d", len(v.Floats))
			}
		}
	}
}

func TestVecAppendAfterConvertDoesNotAlias(t *testing.T) {
	// Build a columnar store whose vectors end mid-word, convert it (the
	// fast path copies vectors), then keep appending to the original
	// builder's vectors: the converted store must not see the new entries.
	schema := value.TRecord(
		value.F("a", value.TInt),
		value.F("items", value.TList(value.TRecord(value.F("q", value.TInt)))),
	)
	b, err := NewBuilder(LayoutColumnar, schema)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(a int64, qs ...int64) value.Value {
		items := make([]value.Value, len(qs))
		for i, q := range qs {
			items[i] = value.VRecord(value.VInt(q))
		}
		return value.VRecord(value.VInt(a), value.VList(items...))
	}
	for i := 0; i < 70; i++ {
		b.Add(rec(int64(i), int64(i)*10))
	}
	cs := b.Finish().(*columnarStore)
	conv, _, err := Convert(cs, LayoutParquet)
	if err != nil {
		t.Fatal(err)
	}
	ps := conv.(*parquetStore)
	// Mutate the source's vectors past the conversion point.
	for ci := range cs.vecs {
		cs.vecs[ci].AppendVal(value.VNull)
	}
	for ci, v := range ps.flatVecs {
		if v == nil {
			continue
		}
		if v.Len() != 70 {
			t.Errorf("converted flat col %d grew to %d", ci, v.Len())
		}
		if v.Nulls.Get(69) {
			t.Errorf("converted col %d: entry 69 became null", ci)
		}
	}
	for _, v := range ps.repVecs {
		if v != nil && v.Len() != 70 {
			t.Errorf("converted repeated col grew to %d", v.Len())
		}
	}
}

// --- Batch cursors ---

// drainCursor collects every selected row index of a cursor.
func drainCursor(t *testing.T, cur *BatchCursor) []int32 {
	t.Helper()
	var all []int32
	buf := make([]int32, 8) // tiny batches: exercise multi-batch paths
	for {
		sel := cur.Next(buf)
		if sel == nil {
			return all
		}
		if len(sel) == 0 {
			t.Fatal("cursor returned an empty non-final batch")
		}
		all = append(all, sel...)
	}
}

// TestBatchCursorMatchesRowScans holds both cursors of each layout to the
// records themselves — the flattened rows to value.FlattenRecord, the
// per-record rows to the records' fields — over three record shapes:
// nested records with multi-element lists (the columnar record cursor
// deduplicates record ids), nested records of at most one element (every
// record one physical row, some of them empty-list placeholders: the record
// cursor is the dense range, the flattened one still skips placeholders),
// and flat records with NULLs (the dense range). Each shape is read from
// stores built by Add, converted by Convert in both directions, and decoded
// by ReadParquetBytes.
func TestBatchCursorMatchesRowScans(t *testing.T) {
	nested := value.TRecord(
		value.F("a", value.TInt),
		value.F("s", value.TString),
		value.F("items", value.TList(value.TRecord(value.F("q", value.TInt)))),
	)
	rec := func(a int64, s string, qs ...int64) value.Value {
		items := make([]value.Value, len(qs))
		for i, q := range qs {
			items[i] = value.VRecord(value.VInt(q))
		}
		return value.VRecord(value.VInt(a), value.VString(s), value.VList(items...))
	}
	var oneRow, flatRecs []value.Value
	for i := int64(0); i < 150; i++ {
		if i%3 == 0 {
			oneRow = append(oneRow, rec(i, "e")) // empty list: a placeholder row
		} else {
			oneRow = append(oneRow, rec(i, "x", i*10))
		}
		a := value.VInt(i)
		if i >= 70 && i < 75 {
			a = value.VNull
		}
		flatRecs = append(flatRecs, value.VRecord(a, value.VString("f")))
	}
	cases := []struct {
		name     string
		schema   *value.Type
		recs     []value.Value
		repeated int   // a repeated column the record cursor must refuse; -1: none
		flatCols []int // the flattened projection
	}{
		{"nested-multi", nested, []value.Value{
			rec(1, "x", 10, 11),
			rec(2, "y"), // empty list: placeholder row, skipped by flat scans
			rec(3, "z", 30),
			rec(4, "w", 40, 41, 42),
		}, 2, []int{0, 2}},
		{"nested-one-row", nested, oneRow, 2, []int{0, 2}},
		{"flat", value.TRecord(value.F("a", value.TInt), value.F("s", value.TString)),
			flatRecs, -1, []int{1, 0}},
	}
	for _, c := range cases {
		cols := []int{0, 1}
		wantRecs := expectedRecords(t, c.schema, c.recs, cols)
		wantFlat := expectedFlat(t, c.schema, c.recs, c.flatCols)
		for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
			built := build(t, layout, c.schema, c.recs)
			other := LayoutParquet
			if layout == LayoutParquet {
				other = LayoutColumnar
			}
			converted, _, err := Convert(built, other)
			if err != nil {
				t.Fatal(err)
			}
			stores := map[string]Store{"built": built, "converted": converted}
			if layout == LayoutParquet {
				decoded, err := ReadParquetBytes(rcs(t, built), c.schema)
				if err != nil {
					t.Fatal(err)
				}
				stores["decoded"] = decoded
			}
			for how, st := range stores {
				name := fmt.Sprintf("%s/%s %v", c.name, how, st.Layout())

				// Record granularity over non-repeated cols.
				if got := collectRecords(t, st, cols); !reflect.DeepEqual(got, wantRecs) {
					t.Errorf("%s: record rows\ngot  %v\nwant %v", name, got, wantRecs)
				}

				// A repeated column at record granularity is an error.
				if c.repeated >= 0 {
					if _, err := st.BatchCursor(false, []int{c.repeated}); err == nil {
						t.Errorf("%s: repeated column should not batch at record granularity", name)
					}
				}

				// Flat granularity: the columnar layout skips its placeholder
				// rows, Parquet expands its records into the same rows.
				if got := collectFlat(t, st, c.flatCols); !reflect.DeepEqual(got, wantFlat) {
					t.Errorf("%s: flattened rows\ngot  %v\nwant %v", name, got, wantFlat)
				}
			}
		}
	}
}
