// Package rawfiletest holds the differential check shared by the fuzz
// targets of the raw-file formats.
package rawfiletest

import (
	"reflect"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/value"
)

// Provider is the scan surface every raw-file format exposes.
type Provider interface {
	plan.ScanProvider
	plan.PushdownScanner
}

// scanned is what one scan streamed: copies of the rows, and their offsets.
type scanned struct {
	rows [][]value.Value
	offs []int64
}

// gather runs scan with a callback that completes every record (so masked
// scans are comparable to full ones) and keeps those passing keep.
func gather(scan func(plan.ScanFunc) error, keep func([]value.Value) bool) (scanned, error) {
	var s scanned
	err := scan(func(rec value.Value, off int64, complete func() error) error {
		if err := complete(); err != nil {
			return err
		}
		if keep == nil || keep(rec.L) {
			s.rows = append(s.rows, append([]value.Value(nil), rec.L...))
			s.offs = append(s.offs, off)
		}
		return nil
	})
	return s, err
}

// Equivalence drives every access path of a provider over one file of size
// bytes; open must return a fresh, unloaded provider over it on each call.
// Nothing may panic, and when a first full scan accepts the file every
// other path must agree with it: the mapped scan, scans masked to each of
// masks and completed through complete(), offset replay with and without
// the positional map, and — against decode-then-filter, for each of preds —
// ScanPushdown on both its first-scan and its mapped path. On a file the
// first scan rejects the same calls are made and only have to return.
func Equivalence(t *testing.T, open func() Provider, size int, preds []expr.Expr, masks [][]value.Path) {
	same := func(what string, got, want scanned, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s failed on a file the first scan accepted: %v", what, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
		}
	}

	p := open()
	schema := p.Schema()
	first, err := gather(func(fn plan.ScanFunc) error { return p.Scan(nil, fn) }, nil)
	accepted := err == nil
	for _, needed := range append([][]value.Path{nil}, masks...) {
		q := open()
		got, err := gather(func(fn plan.ScanFunc) error { return q.Scan(needed, fn) }, nil)
		if accepted {
			same("masked first scan", got, first, err)
		}
		got, err = gather(func(fn plan.ScanFunc) error { return p.Scan(needed, fn) }, nil)
		if accepted {
			same("mapped scan", got, first, err)
		}
		offs := first.offs
		if !accepted {
			offs = []int64{0, int64(size / 2), int64(size)}
		}
		for _, q := range []Provider{p, open()} {
			got, err := gather(func(fn plan.ScanFunc) error { return q.ScanOffsets(offs, needed, fn) }, nil)
			if accepted {
				same("offset replay", got, first, err)
			}
		}
		for _, pred := range preds {
			pd, residual := expr.ExtractPushdown(pred, schema)
			keepAll, err := expr.CompilePredicate(pred, schema)
			if err != nil {
				t.Fatal(err)
			}
			keepRest, err := expr.CompilePredicate(residual, schema)
			if err != nil {
				t.Fatal(err)
			}
			var want scanned
			for i, row := range first.rows {
				if keepAll(row) {
					want.rows, want.offs = append(want.rows, row), append(want.offs, first.offs[i])
				}
			}
			for _, q := range []Provider{open(), p} {
				got, err := gather(func(fn plan.ScanFunc) error {
					_, err := q.ScanPushdown(pd, needed, fn)
					return err
				}, keepRest)
				if accepted {
					same("pushdown "+pred.Canonical(), got, want, err)
				}
			}
		}
	}
}
