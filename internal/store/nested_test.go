package store

import (
	"fmt"
	"math/rand"
	"testing"

	"recache/internal/value"
)

// wideFlatSchema is a flat 16-column schema cycling the four primitive
// kinds (the shape of a wide projection result).
func wideFlatSchema() *value.Type {
	kinds := []*value.Type{value.TInt, value.TFloat, value.TString, value.TBool}
	fields := make([]value.Field, 16)
	for i := range fields {
		fields[i] = value.F(fmt.Sprintf("c%02d", i), kinds[i%len(kinds)])
	}
	return value.TRecord(fields...)
}

func randomWideRecord(r *rand.Rand) value.Value {
	vals := make([]value.Value, 16)
	for i := range vals {
		switch i % 4 {
		case 0:
			vals[i] = value.VInt(int64(r.Intn(1 << 20)))
		case 1:
			vals[i] = value.VFloat(r.Float64() * 1000)
		case 2:
			vals[i] = value.VString([]string{"x", "yy", "zzz"}[r.Intn(3)])
		default:
			vals[i] = value.VBool(r.Intn(2) == 0)
		}
	}
	return value.VRecord(vals...)
}

// BenchmarkScanNested measures record reassembly — the path of layout
// conversion replays and of a client decoding a list- or record-typed
// result — over a flat 16-column schema and the nested order schema, in
// both nested layouts. allocs/op divided by the 4096 records is the
// per-record allocation count.
func BenchmarkScanNested(b *testing.B) {
	const nRecs = 4096
	r := rand.New(rand.NewSource(1))
	flat := make([]value.Value, nRecs)
	nested := make([]value.Value, nRecs)
	for i := range flat {
		flat[i] = randomWideRecord(r)
		nested[i] = randomRecord(r)
	}
	for _, c := range []struct {
		name   string
		schema *value.Type
		recs   []value.Value
	}{{"flat16", wideFlatSchema(), flat}, {"nested", orderSchema(), nested}} {
		for _, layout := range []Layout{LayoutParquet, LayoutColumnar} {
			bld, err := NewBuilder(layout, c.schema)
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range c.recs {
				if err := bld.Add(rec); err != nil {
					b.Fatal(err)
				}
			}
			st := bld.Finish()
			b.Run(c.name+"/"+layout.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					if err := st.ScanNested(func(value.Value) error { n++; return nil }); err != nil {
						b.Fatal(err)
					}
					if n != nRecs {
						b.Fatalf("scanned %d records, want %d", n, nRecs)
					}
				}
			})
		}
	}
}
