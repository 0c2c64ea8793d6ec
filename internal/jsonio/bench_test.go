package jsonio

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"recache/internal/expr"
	"recache/internal/value"
)

// benchJSON writes rows order records and returns the path and the file
// size.
func benchJSON(b *testing.B, rows int) (string, int64) {
	b.Helper()
	var data []byte
	for i := 1; i <= rows; i++ {
		data = fmt.Appendf(data,
			`{"o_orderkey":%d,"o_totalprice":%d.5,"o_comment":"comment-%d padding padding padding","origin":{"country":"CH","ip":"10.0.%d.%d"},"lineitems":[{"l_quantity":%d,"l_discount":0.1}]}`+"\n",
			i, i%500, i, i%256, (i*7)%256, i%50)
	}
	path := filepath.Join(b.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path, int64(len(data))
}

// BenchmarkFirstScan measures the first-touch parse of an NDJSON file —
// dominated by string scanning, which is the memchr fast path in rawString.
// A fresh provider per iteration keeps each scan a true first scan.
func BenchmarkFirstScan(b *testing.B) {
	path, size := benchJSON(b, 10000)
	schema := orderSchema()
	needed := []value.Path{value.ParsePath("o_orderkey")}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(path, schema)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = p.Scan(needed, func(value.Value, int64, func() error) error {
			n++
			return nil
		})
		if err != nil || n != 10000 {
			b.Fatalf("scan: %d rows, %v", n, err)
		}
	}
}

// BenchmarkFirstScanPushdown measures the pushdown flavor of a first scan:
// map every record, test one column, decode only survivors.
func BenchmarkFirstScanPushdown(b *testing.B) {
	path, size := benchJSON(b, 10000)
	schema := orderSchema()
	pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpLt, expr.C("o_totalprice"), expr.L(5.0)), schema)
	if pd == nil {
		b.Fatal("predicate not pushable")
	}
	needed := []value.Path{value.ParsePath("o_orderkey"), value.ParsePath("o_totalprice")}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(path, schema)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		_, err = p.ScanPushdown(pd, needed, func(value.Value, int64, func() error) error {
			n++
			return nil
		})
		if err != nil || n == 0 {
			b.Fatalf("pushdown scan: %d rows, %v", n, err)
		}
	}
}

// BenchmarkMappedScan is the contrast case: with the file mapped, a
// selective scan jumps straight to the one needed field per record.
func BenchmarkMappedScan(b *testing.B) {
	path, size := benchJSON(b, 10000)
	p, err := New(path, orderSchema())
	if err != nil {
		b.Fatal(err)
	}
	needed := []value.Path{value.ParsePath("o_orderkey")}
	if err := p.Scan(needed, func(value.Value, int64, func() error) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Scan(needed, func(value.Value, int64, func() error) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
