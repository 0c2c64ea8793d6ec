package csvio

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"recache/internal/expr"
	"recache/internal/value"
)

// benchCSV writes rows records shaped like the test schema and returns the
// path and the file size.
func benchCSV(b *testing.B, rows int) (string, int64) {
	b.Helper()
	var data []byte
	for i := 1; i <= rows; i++ {
		data = fmt.Appendf(data, "%d|%d.25|name-%d-%s\n", i, i%97, i, "padpadpadpadpad")
	}
	path := filepath.Join(b.TempDir(), "bench.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path, int64(len(data))
}

// BenchmarkFirstScan measures the first touch of a file: every byte is
// visited to build the positional map (the memchr prescan is the fast path
// under test), then the needed field is decoded through it. A fresh provider
// per iteration keeps each scan a true first scan.
func BenchmarkFirstScan(b *testing.B) {
	path, size := benchCSV(b, 20000)
	schema := testSchema()
	needed := []value.Path{value.ParsePath("id")}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(path, schema, Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = p.Scan(needed, func(rec value.Value, _ int64, _ func() error) error {
			n++
			return nil
		})
		if err != nil || n != 20000 {
			b.Fatalf("scan: %d rows, %v", n, err)
		}
	}
}

// BenchmarkFirstScanPushdown measures the pushdown flavor: map every
// record, test one column, decode only survivors.
func BenchmarkFirstScanPushdown(b *testing.B) {
	path, size := benchCSV(b, 20000)
	schema := testSchema()
	pred := expr.Cmp(expr.OpLt, expr.C("price"), expr.L(5.0))
	pd, _ := expr.ExtractPushdown(pred, schema)
	if pd == nil {
		b.Fatal("predicate not pushable")
	}
	needed := []value.Path{value.ParsePath("id"), value.ParsePath("price")}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(path, schema, Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		_, err = p.ScanPushdown(pd, needed, func(rec value.Value, _ int64, _ func() error) error {
			n++
			return nil
		})
		if err != nil || n == 0 {
			b.Fatalf("pushdown scan: %d rows, %v", n, err)
		}
	}
}

// BenchmarkMappedScan is the contrast case: with the positional map built,
// a selective scan jumps straight to the one needed field per record.
func BenchmarkMappedScan(b *testing.B) {
	path, size := benchCSV(b, 20000)
	p, err := New(path, testSchema(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	needed := []value.Path{value.ParsePath("id")}
	if err := p.Scan(needed, func(value.Value, int64, func() error) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := p.Scan(needed, func(rec value.Value, _ int64, _ func() error) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
