package store

import (
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

// Property: for the columnar layout, Extend(src, tail) is indistinguishable
// from building src's records followed by tail from scratch, and src
// itself is untouched (concurrent scans of the pre-extension payload must
// stay valid).
func TestExtendMatchesRebuild(t *testing.T) {
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
		src := build(t, LayoutColumnar, schema, old)
		before := collectFlat(t, src, cols)
		ext, ok, err := Extend(src, tail)
		if err != nil || !ok {
			return false
		}
		want := build(t, LayoutColumnar, schema, append(append([]value.Value{}, old...), tail...))
		if ext.Layout() != LayoutColumnar ||
			ext.NumRecords() != want.NumRecords() ||
			ext.SizeBytes() != want.SizeBytes() {
			return false
		}
		if !reflect.DeepEqual(collectFlat(t, ext, cols), collectFlat(t, want, cols)) {
			return false
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

func TestExtendParquetFallsBack(t *testing.T) {
	// Parquet's level-encoded vectors have no copy fast path: the caller
	// must get ok=false and replay through a builder instead.
	src := build(t, LayoutParquet, orderSchema(), sampleOrders())
	st, ok, err := Extend(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok || st != nil {
		t.Errorf("Extend on parquet: ok=%v st=%v, want fallback", ok, st)
	}
}
