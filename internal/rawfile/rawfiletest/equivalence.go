// Package rawfiletest holds the differential check shared by the fuzz
// targets of the raw-file formats.
package rawfiletest

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

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

// verdictRecords bounds the per-record verdict check of a rejected file.
const verdictRecords = 32

// Equivalence drives every access path of a fresh provider p over one file
// of size bytes. Nothing may panic, and when a full scan accepts the file
// every other path must agree with it: scans masked to each of masks and
// completed through complete(), offset replay, a ScanFrom tail, and —
// against decode-then-filter, for each of preds — ScanPushdown. The typed
// kernel is held to the same records: on every path, AppendColumns over the
// offsets the path reported must yield the decoded records striped by
// value.LeafColumns, list lengths included — into every leaf, and into every
// other leaf with the rest skipped. On a file the full scan rejects the same
// calls are made and only have to return, except that the kernel must still
// accept exactly the records a full decode accepts.
func Equivalence(t *testing.T, p plan.Source, size int, preds []expr.Expr, masks [][]value.Path) {
	schema := p.Schema()
	same := func(what string, got, want scanned, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s failed on a file the full scan accepted: %v", what, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
		}
		for _, every := range []int{1, 2} {
			vecs, lengths, err := appendColumns(p, got.offs, every)
			if err != nil {
				t.Fatalf("%s: AppendColumns (every %d. leaf) failed on records a decode accepted: %v", what, every, err)
			}
			sameLeaves(t, what, schema, vecs, lengths, got.rows)
		}
	}

	first, err := gather(func(fn plan.ScanFunc) error { return p.Scan(nil, fn) }, nil)
	accepted := err == nil
	if !accepted {
		sameVerdicts(t, p)
	}
	for _, needed := range append([][]value.Path{nil}, masks...) {
		got, err := gather(func(fn plan.ScanFunc) error { return p.Scan(needed, fn) }, nil)
		if accepted {
			same("masked scan", got, first, err)
		}
		offs := first.offs
		if !accepted {
			offs = []int64{0, int64(size / 2), int64(size)}
		}
		got, err = gather(func(fn plan.ScanFunc) error { return p.ScanOffsets(offs, needed, fn) }, nil)
		if accepted {
			same("offset replay", got, first, err)
		}
		mid := len(first.offs) / 2
		from, tail := int64(size/2), scanned{}
		if accepted && len(first.offs) > 0 {
			from, tail = first.offs[mid], scanned{rows: first.rows[mid:], offs: first.offs[mid:]}
		}
		got, err = gather(func(fn plan.ScanFunc) error { return p.ScanFrom(from, needed, fn) }, nil)
		if accepted && len(first.offs) > 0 {
			same("tail scan", got, tail, err)
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
			got, err := gather(func(fn plan.ScanFunc) error {
				_, err := p.ScanPushdown(pd, needed, fn)
				return err
			}, keepRest)
			if accepted {
				same("pushdown "+pred.Canonical(), got, want, err)
			}
		}
	}
}

// appendColumns runs the typed kernel over the records of p at offs, into
// every every-th leaf column (1: all of them); the others are nil.
func appendColumns(p plan.Source, offs []int64, every int) ([]*store.Vec, []int32, error) {
	vecs := store.NewColumns(p.Schema())
	for i := range vecs {
		if i%every != 0 {
			vecs[i] = nil
		}
	}
	epoch, _ := p.Version()
	lengths, err := p.AppendColumns(epoch, offs, vecs, nil)
	return vecs, lengths, err
}

// sameLeaves checks the kernel's vectors and lengths against the decoded
// rows striped by value.LeafColumns — a non-repeated leaf's value once per
// record, a repeated leaf's once per element of the list (value.Flatten-
// Record's rows), the list's length beside them — cell for cell: value,
// kind and null bit. A nil vector is a skipped leaf.
func sameLeaves(t *testing.T, what string, schema *value.Type, vecs []*store.Vec, lengths []int32, rows [][]value.Value) {
	t.Helper()
	cols, err := value.LeafColumns(schema)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]value.Value, len(cols))
	var wantLengths []int32
	list := value.RepeatedField(schema) != nil
	for _, row := range rows {
		rec := value.VRecord(row...)
		flat := value.FlattenRecord(rec, schema, cols)
		if list {
			wantLengths = append(wantLengths, int32(value.RecordCardinality(rec, schema)))
		}
		for ci, c := range cols {
			if !c.Repeated {
				want[ci] = append(want[ci], value.Get(rec, schema, c.Path))
				continue
			}
			for _, r := range flat {
				want[ci] = append(want[ci], r[ci])
			}
		}
	}
	if !slices.Equal(lengths, wantLengths) {
		t.Fatalf("%s: AppendColumns list lengths %v, decode has %v", what, lengths, wantLengths)
	}
	for ci, v := range vecs {
		if v == nil {
			continue
		}
		if v.Len() != len(want[ci]) {
			t.Fatalf("%s: AppendColumns leaf %s has %d entries, decode has %d", what, cols[ci].Name(), v.Len(), len(want[ci]))
		}
		for k, w := range want[ci] {
			if got := v.Get(k); !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: AppendColumns leaf %s entry %d = %#v, decode has %#v", what, cols[ci].Name(), k, got, w)
			}
		}
	}
}

// sameVerdicts holds the kernel to a full decode one record at a time, on a
// file some record of which is malformed: over each of the first records a
// field-less scan reaches, both accept — with equal leaves — or both reject.
func sameVerdicts(t *testing.T, p plan.Source) {
	t.Helper()
	var offs []int64
	_ = p.Scan([]value.Path{}, func(_ value.Value, off int64, _ func() error) error {
		if offs = append(offs, off); len(offs) == verdictRecords {
			return errStop
		}
		return nil
	}) // ends at errStop, or at once when the format rejects the file: offs is what it reached
	for _, off := range offs {
		one := []int64{off}
		dec, derr := gather(func(fn plan.ScanFunc) error { return p.ScanOffsets(one, nil, fn) }, nil)
		vecs, lengths, kerr := appendColumns(p, one, 1)
		if (derr == nil) != (kerr == nil) {
			t.Fatalf("record at %d: decode says %v, AppendColumns says %v", off, derr, kerr)
		}
		if derr == nil {
			sameLeaves(t, "single record", p.Schema(), vecs, lengths, dec.rows)
		}
	}
}

var errStop = errors.New("stop")

// MappedScanAllocs returns the allocations of one scan of p's file through
// the positional map (built here by a first scan), masked to needed and
// never completed: what a scan costs beyond its records, which is a row
// buffer, a mask and a completion — not a closure per record.
func MappedScanAllocs(t *testing.T, p plan.Source, needed []value.Path) float64 {
	t.Helper()
	if Race {
		t.Skip("the race detector allocates")
	}
	scan := func() {
		if err := p.Scan(needed, func(value.Value, int64, func() error) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	return testing.AllocsPerRun(5, scan)
}
