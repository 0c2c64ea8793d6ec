package jsonio

import (
	"fmt"
	"reflect"
	"testing"

	"recache/internal/expr"
	"recache/internal/value"
)

// pushSchema is a flat top-level schema (nested fields are not pushable, so
// pushdown tests focus on top-level primitives).
func pushSchema() *value.Type {
	return value.TRecord(
		value.F("k", value.TInt),
		value.FOpt("price", value.TFloat),
		value.FOpt("tag", value.TString),
	)
}

// pushJSON exercises absent keys, explicit nulls, escaped strings, and a
// float literal in an int field (integral, so parseValue reads it as that
// integer; the pushdown test must agree).
const pushJSON = `{"k":1,"price":10.5,"tag":"alpha"}
{"k":2,"tag":"be\"ta"}
{"k":3,"price":null,"tag":"gamma"}
{"price":5.5,"tag":"delta"}
{"k":5.0,"price":0.5}
{"k":6,"price":-1,"tag":"alpha"}
`

func jsonScanFiltered(t *testing.T, p *Provider, pred expr.Expr, needed []value.Path) ([][]value.Value, []int64) {
	t.Helper()
	full, err := expr.CompilePredicate(pred, p.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if needed != nil {
		seen := map[string]bool{}
		for _, n := range needed {
			seen[n.String()] = true
		}
		for _, c := range expr.Columns(pred) {
			if !seen[c.String()] {
				seen[c.String()] = true
				needed = append(needed[:len(needed):len(needed)], c)
			}
		}
	}
	var rows [][]value.Value
	var offs []int64
	err = p.Scan(needed, func(rec value.Value, off int64, _ func() error) error {
		if !full(rec.L) {
			return nil
		}
		rows = append(rows, append([]value.Value(nil), rec.L...))
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, offs
}

func jsonScanPushed(t *testing.T, p *Provider, pred expr.Expr, needed []value.Path) ([][]value.Value, []int64, int64) {
	t.Helper()
	pd, residual := expr.ExtractPushdown(pred, p.Schema())
	if pd == nil {
		t.Fatalf("predicate %s not pushable", pred.Canonical())
	}
	res, err := expr.CompilePredicate(residual, p.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	var offs []int64
	skipped, err := p.ScanPushdown(pd, needed, func(rec value.Value, off int64, _ func() error) error {
		if !res(rec.L) {
			return nil
		}
		rows = append(rows, append([]value.Value(nil), rec.L...))
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, offs, skipped
}

// TestJSONScanPushdownDifferential: pushdown on/off must agree record for
// record — in particular, records with ABSENT pushed keys (NULL semantics)
// must be skipped exactly when the row filter would reject them, and
// records where only OTHER keys are absent must not be skipped.
func TestJSONScanPushdownDifferential(t *testing.T) {
	preds := []expr.Expr{
		expr.Cmp(expr.OpGe, expr.C("k"), expr.L(2)),  // absent k in rec 4 ⇒ filtered both ways
		expr.Cmp(expr.OpLe, expr.C("k"), expr.L(10)), // absent price/tag elsewhere must NOT skip
		expr.Between(expr.C("price"), expr.L(0.0), expr.L(11.0)),
		expr.Cmp(expr.OpEq, expr.C("tag"), expr.L("alpha")),
		expr.Cmp(expr.OpEq, expr.C("tag"), expr.L(`be"ta`)), // escaped string content
		expr.And(expr.Cmp(expr.OpGe, expr.C("k"), expr.L(1)), expr.Cmp(expr.OpGt, expr.C("price"), expr.L(0.0))),
	}
	for pi, pred := range preds {
		for _, mapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("pred%d/mapped=%v", pi, mapped), func(t *testing.T) {
				mk := func() *Provider {
					p, err := New(writeFile(t, pushJSON), pushSchema())
					if err != nil {
						t.Fatal(err)
					}
					if mapped {
						collect(t, p, nil)
					}
					return p
				}
				needed := []value.Path{value.ParsePath("k"), value.ParsePath("tag")}
				wantRows, wantOffs := jsonScanFiltered(t, mk(), pred, needed)
				gotRows, gotOffs, _ := jsonScanPushed(t, mk(), pred, needed)
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Fatalf("rows:\n got %v\nwant %v", gotRows, wantRows)
				}
				if !reflect.DeepEqual(gotOffs, wantOffs) {
					t.Fatalf("offsets: got %v want %v", gotOffs, wantOffs)
				}
			})
		}
	}
}

// TestJSONScanPushdownAbsentKeys: a record whose pushed column is absent is
// skipped (NULL fails), and skipped counts reflect exactly that.
func TestJSONScanPushdownAbsentKeys(t *testing.T) {
	p, err := New(writeFile(t, pushJSON), pushSchema())
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpGe, expr.C("price"), expr.L(-100.0)), p.Schema())
	var keys []int64
	skipped, err := p.ScanPushdown(pd, nil, func(rec value.Value, _ int64, _ func() error) error {
		keys = append(keys, rec.L[0].I)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Records 2 (absent price) and 3 (null price) are skipped; the rest pass.
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	want := []int64{1, 0, 5, 6} // record 4 has absent k ⇒ parsed as null ⇒ I==0
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
}

// TestJSONScanPushdownComplete: complete() fills the union-skipped fields
// of surviving records on a fresh provider and on a scanned one.
func TestJSONScanPushdownComplete(t *testing.T) {
	p, err := New(writeFile(t, pushJSON), pushSchema())
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.Cmp(expr.OpEq, expr.C("k"), expr.L(1))
	pd, _ := expr.ExtractPushdown(pred, p.Schema())
	for pass := 0; pass < 2; pass++ {
		n := 0
		_, err = p.ScanPushdown(pd, []value.Path{value.ParsePath("k")}, func(rec value.Value, _ int64, complete func() error) error {
			n++
			if rec.L[2].Kind != value.Null {
				t.Fatalf("pass %d: tag materialized early", pass)
			}
			if err := complete(); err != nil {
				return err
			}
			if rec.L[1].F != 10.5 || rec.L[2].S != "alpha" {
				t.Fatalf("pass %d: complete() row = %v", pass, rec.L)
			}
			return nil
		})
		if err != nil || n != 1 {
			t.Fatalf("pass %d: n=%d err=%v", pass, n, err)
		}
	}
}
