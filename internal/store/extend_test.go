package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"recache/internal/value"
)

func flatSchema() *value.Type {
	return value.TRecord(
		value.F("a", value.TInt),
		value.FOpt("d", value.TFloat),
		value.F("s", value.TString),
	)
}

func randomFlatRecord(r *rand.Rand) value.Value {
	var d value.Value = value.VNull
	if r.Intn(3) > 0 {
		d = value.VFloat(float64(r.Intn(100)) / 4)
	}
	return value.VRecord(
		value.VInt(int64(r.Intn(1000))),
		d,
		value.VString([]string{"x", "yy", "zzz"}[r.Intn(3)]),
	)
}

// Property: for a flat schema in either layout (a columnar build, or the
// Parquet store a disk-tier re-admission hands back), Extend(src, tail) is
// indistinguishable from building src's records followed by tail from
// scratch, and src itself is untouched (concurrent scans of the
// pre-extension payload must stay valid).
func TestExtendMatchesRebuild(t *testing.T) {
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		t.Run(layout.String(), func(t *testing.T) { testExtendMatchesRebuild(t, layout) })
	}
}

func testExtendMatchesRebuild(t *testing.T, layout Layout) {
	schema := flatSchema()
	cols := []int{0, 1, 2}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		old := make([]value.Value, r.Intn(20))
		for i := range old {
			old[i] = randomFlatRecord(r)
		}
		tail := make([]value.Value, r.Intn(10))
		for i := range tail {
			tail[i] = randomFlatRecord(r)
		}
		src := build(t, layout, schema, old)
		before := collectFlat(t, src, cols)
		ext, ok, err := Extend(src, tail)
		if err != nil || !ok {
			return false
		}
		want := build(t, layout, schema, append(append([]value.Value{}, old...), tail...))
		if ext.Layout() != layout ||
			ext.NumRecords() != want.NumRecords() ||
			ext.SizeBytes() != want.SizeBytes() {
			return false
		}
		if !reflect.DeepEqual(collectFlat(t, ext, cols), collectFlat(t, want, cols)) {
			return false
		}
		if layout == LayoutParquet {
			// What the next demotion would spill — also when the tail went
			// on while src was being read back from its spill stream.
			var file, got, fused, exp bytes.Buffer
			if WriteParquet(&file, src) != nil {
				return false
			}
			reread, err := ReadParquetExtended(file.Bytes(), schema, tail)
			if err != nil || WriteParquet(&got, ext) != nil || WriteParquet(&fused, reread) != nil ||
				WriteParquet(&exp, want) != nil || reread.SizeBytes() != want.SizeBytes() ||
				!bytes.Equal(got.Bytes(), exp.Bytes()) || !bytes.Equal(fused.Bytes(), exp.Bytes()) {
				return false
			}
		}
		// Source store must be byte-for-byte what it was.
		if !reflect.DeepEqual(collectFlat(t, src, cols), before) || src.NumRecords() != len(old) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExtendEmptyTail(t *testing.T) {
	schema := flatSchema()
	r := rand.New(rand.NewSource(7))
	recs := []value.Value{randomFlatRecord(r), randomFlatRecord(r)}
	src := build(t, LayoutColumnar, schema, recs)
	ext, ok, err := Extend(src, nil)
	if err != nil || !ok {
		t.Fatalf("Extend(nil tail): ok=%v err=%v", ok, err)
	}
	if ext.NumRecords() != 2 || ext.SizeBytes() != src.SizeBytes() {
		t.Errorf("empty-tail extension changed the store: %d records, %d bytes (src %d)",
			ext.NumRecords(), ext.SizeBytes(), src.SizeBytes())
	}
}

func TestExtendNestedReportsNotOK(t *testing.T) {
	// A nested store's level-encoded vectors have no copy path: ok=false.
	src := build(t, LayoutParquet, orderSchema(), sampleOrders())
	st, ok, err := Extend(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok || st != nil {
		t.Errorf("Extend on a nested parquet store: ok=%v st=%v, want ok=false", ok, st)
	}
}
