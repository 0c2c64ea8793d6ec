package store

import (
	"crypto/sha256"
	"math/rand"
	"reflect"
	"slices"
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

// Property: for a flat and a nested schema in either layout (a columnar
// build, or the Parquet store a disk-tier re-admission hands back),
// Extend(src, tail) is indistinguishable from building src's records
// followed by tail from scratch — the same rows, size and RCS bytes — and
// src itself is untouched (concurrent scans of the pre-extension payload
// must stay valid).
func TestExtendMatchesRebuild(t *testing.T) {
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		t.Run(layout.String(), func(t *testing.T) {
			testExtendMatchesRebuild(t, layout, flatSchema(), func(r *rand.Rand, n int) []value.Value {
				recs := make([]value.Value, n)
				for i := range recs {
					recs[i] = randomFlatRecord(r)
				}
				return recs
			})
			testExtendMatchesRebuild(t, layout, nestedSchema(), func(r *rand.Rand, n int) []value.Value {
				return randomRecords(r, true, n)
			})
		})
	}
}

func testExtendMatchesRebuild(t *testing.T, layout Layout, schema *value.Type, records func(*rand.Rand, int) []value.Value) {
	cols := make([]int, len(NewColumns(schema)))
	for i := range cols {
		cols[i] = i
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		old, tail := records(r, r.Intn(20)), records(r, r.Intn(10))
		src := build(t, layout, schema, old)
		before, beforeRCS := collectFlat(t, src, cols), spilled(t, src)
		ext, ok, err := Extend(src, tail)
		if err != nil || !ok {
			return false
		}
		want := build(t, layout, schema, slices.Concat(old, tail))
		if ext.Layout() != layout || ext.NumRecords() != want.NumRecords() ||
			ext.NumFlatRows() != want.NumFlatRows() || ext.SizeBytes() != want.SizeBytes() ||
			!reflect.DeepEqual(collectFlat(t, ext, cols), collectFlat(t, want, cols)) ||
			spilled(t, ext) != spilled(t, want) {
			return false
		}
		if layout == LayoutParquet {
			// What the next demotion would spill — also when the tail went
			// on while src was being read back from its spill stream.
			reread, err := ReadParquetExtended(rcs(t, src), schema, tail)
			if err != nil || reread.SizeBytes() != want.SizeBytes() || spilled(t, reread) != spilled(t, want) {
				return false
			}
		}
		// Source store must be byte-for-byte what it was.
		return reflect.DeepEqual(collectFlat(t, src, cols), before) && spilled(t, src) == beforeRCS &&
			src.NumRecords() == len(old)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("%s: %v", schema, err)
	}
}

// spilled is the digest of st serialised the way the spill tier and
// replication serialise an entry: in the Parquet layout, written as RCS.
func spilled(t testing.TB, st Store) [sha256.Size]byte {
	t.Helper()
	pq, _, err := Convert(st, LayoutParquet)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(rcs(t, pq))
}

// TestExtendTwiceIsIndependent: extending one store twice with different
// tails yields two independent stores and leaves the source as it was. A
// source with spare capacity behind its vectors — a Builder's, grown by
// append, or one re-read from a spill stream with room for a tail — is the
// trap: a tail appended in place would write the second extension over the
// first.
func TestExtendTwiceIsIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, nested := range []bool{false, true} {
		schema := boolFlatSchema()
		if nested {
			schema = nestedSchema()
		}
		recs := randomRecords(r, nested, 400)
		old, tailA, tailB := recs[:200], recs[200:230], recs[230:400]
		for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
			srcs := map[string]Store{"built": build(t, layout, schema, old)}
			if layout == LayoutParquet {
				reread, err := ReadParquetExtended(rcs(t, build(t, layout, schema, old[:150])), schema, old[150:])
				if err != nil {
					t.Fatal(err)
				}
				srcs["re-read"] = reread
			}
			for name, src := range srcs {
				before, beforeNested := spilled(t, src), collectNested(t, src)
				a, _, err := Extend(src, tailA)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := Extend(src, tailB)
				if err != nil {
					t.Fatal(err)
				}
				sameStore(t, a, build(t, layout, schema, slices.Concat(old, tailA)), slices.Concat(old, tailA))
				sameStore(t, b, build(t, layout, schema, slices.Concat(old, tailB)), slices.Concat(old, tailB))
				if spilled(t, src) != before || !reflect.DeepEqual(collectNested(t, src), beforeNested) ||
					src.NumRecords() != len(old) {
					t.Errorf("nested=%v %s %s source changed under two extensions", nested, name, layout)
				}
			}
		}
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
