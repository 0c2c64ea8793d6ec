package csvio

import (
	"fmt"
	"reflect"
	"testing"

	"recache/internal/expr"
	"recache/internal/value"
)

// pushData exercises the edge cases pushdown must preserve: empty (NULL)
// fields in every column kind, quoted string content (the CSV tokenizer is
// quote-agnostic: quotes are field bytes and must compare as such), and
// negative numbers.
const pushData = "1|10.5|alpha\n" +
	"2||\"beta\"\n" + // null float, quoted string content
	"|20.25|gamma\n" + // null int
	"4|-7|\n" + // null string
	"5|0.5|alpha\n"

func scanFiltered(t *testing.T, p *Provider, pred expr.Expr, needed []value.Path) ([][]value.Value, []int64) {
	t.Helper()
	// Reference semantics: a plain scan with the compiled predicate on top.
	// Like the engine's planner, the scan's needed set includes the
	// predicate's columns (so the filter sees materialized values).
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

func scanPushed(t *testing.T, p *Provider, pred expr.Expr, needed []value.Path) ([][]value.Value, []int64, int64) {
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

func TestScanPushdownDifferential(t *testing.T) {
	preds := []expr.Expr{
		expr.Cmp(expr.OpGe, expr.C("id"), expr.L(2)),
		expr.Between(expr.C("id"), expr.L(2), expr.L(4)),
		expr.Cmp(expr.OpGt, expr.C("price"), expr.L(0.0)),
		expr.Cmp(expr.OpEq, expr.C("name"), expr.L("alpha")),
		expr.Cmp(expr.OpEq, expr.C("name"), expr.L(`"beta"`)), // quoted content
		expr.And(expr.Cmp(expr.OpGe, expr.C("id"), expr.L(1)), expr.Cmp(expr.OpLt, expr.C("name"), expr.L("g"))),
	}
	for pi, pred := range preds {
		for _, mapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("pred%d/mapped=%v", pi, mapped), func(t *testing.T) {
				mk := func() *Provider {
					p, err := New(writeFile(t, pushData), testSchema(), Options{})
					if err != nil {
						t.Fatal(err)
					}
					if mapped {
						collect(t, p, nil) // build the positional map first
					}
					return p
				}
				needed := []value.Path{value.ParsePath("id"), value.ParsePath("name")}
				wantRows, wantOffs := scanFiltered(t, mk(), pred, needed)
				gotRows, gotOffs, skipped := scanPushed(t, mk(), pred, needed)
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Fatalf("rows:\n got %v\nwant %v", gotRows, wantRows)
				}
				if !reflect.DeepEqual(gotOffs, wantOffs) {
					t.Fatalf("offsets: got %v want %v", gotOffs, wantOffs)
				}
				if skipped != int64(5-len(wantRows)) {
					// Residual-free predicates skip exactly the non-matching records.
					pd, residual := expr.ExtractPushdown(pred, testSchema())
					if residual == nil {
						t.Fatalf("skipped = %d, want %d (pd %s)", skipped, 5-len(wantRows), pd)
					}
				}
			})
		}
	}
}

// TestScanPushdownCompleteParsesRest: complete() on a surviving record must
// fill the fields outside needed ∪ tested.
func TestScanPushdownCompleteParsesRest(t *testing.T) {
	p, err := New(writeFile(t, pushData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.Cmp(expr.OpEq, expr.C("id"), expr.L(1))
	pd, _ := expr.ExtractPushdown(pred, p.Schema())
	for pass := 0; pass < 2; pass++ { // a fresh provider, then a scanned one
		n := 0
		_, err = p.ScanPushdown(pd, []value.Path{value.ParsePath("id")}, func(rec value.Value, _ int64, complete func() error) error {
			n++
			if rec.L[2].Kind != value.Null {
				t.Fatalf("pass %d: name materialized before complete: %v", pass, rec.L[2])
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

// TestScanPushdownStats: provider counters track pushdown scans and early
// skips.
func TestScanPushdownStats(t *testing.T) {
	p, err := New(writeFile(t, pushData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.Cmp(expr.OpGe, expr.C("id"), expr.L(4))
	pd, _ := expr.ExtractPushdown(pred, p.Schema())
	for i := 0; i < 2; i++ {
		if _, err := p.ScanPushdown(pd, nil, func(value.Value, int64, func() error) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	scans, skipped := p.PushdownStats()
	if scans != 2 || skipped != 6 { // 3 of 5 records fail, twice
		t.Fatalf("PushdownStats = (%d, %d), want (2, 6)", scans, skipped)
	}
	if p.Scans() != 2 {
		t.Fatalf("Scans = %d, want 2 (pushdown scans are full-file scans)", p.Scans())
	}
}

// TestScanPushdownBadField: a malformed tested field errors exactly like the
// plain decode path instead of being silently skipped.
func TestScanPushdownBadField(t *testing.T) {
	p, err := New(writeFile(t, "1|1.5|a\nxx|2.5|b\n"), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpGe, expr.C("id"), expr.L(0)), p.Schema())
	_, err = p.ScanPushdown(pd, nil, func(value.Value, int64, func() error) error { return nil })
	if err == nil {
		t.Fatal("want decode error for malformed int field")
	}
}
