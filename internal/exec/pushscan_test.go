package exec

import (
	"strings"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/value"
)

// A source filters a pushdown below its parse: ScanPushdown for id BETWEEN
// 2 AND 4, with only qty needed, hands the callback the passing records
// with the tested column decoded and counts the rest as skipped.
func TestPushScanBelowParse(t *testing.T) {
	src, err := source(csvDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	pd, residual := expr.ExtractPushdown(expr.Between(expr.C("id"), expr.L(2), expr.L(4)), src.Schema())
	if pd == nil || residual != nil {
		t.Fatal("predicate not fully pushable")
	}
	var ids []int64
	skipped, err := src.ScanPushdown(pd, []value.Path{{"qty"}}, func(rec value.Value, off int64, complete func() error) error {
		// The tested column is decoded although the caller did not ask for it.
		if rec.L[0].Kind != value.Int {
			t.Fatalf("id not decoded: %v", rec.L)
		}
		ids = append(ids, rec.L[0].I)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[2] != 4 {
		t.Errorf("ids = %v, want [2 3 4]", ids)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2", skipped)
	}
}

// A provider short of a plan.Source fails a raw select at compile time,
// with or without pushdown: there is no route without the source's
// cursor and kernel to fall back to.
func TestRawSelectNeedsSource(t *testing.T) {
	ds := csvDataset(t)
	ds.Provider = struct{ plan.ScanProvider }{ds.Provider}
	sel := &plan.Select{Pred: expr.Between(expr.C("id"), expr.L(2), expr.L(4)), Child: &plan.Scan{DS: ds}}
	for _, off := range []bool{false, true} {
		deps := uncached(nil)
		deps.DisablePushdown = off
		if _, _, err := Run(sel, deps); err == nil || !strings.Contains(err.Error(), "not a plan.Source") {
			t.Errorf("pushdown off = %v: err = %v, want a missing plan.Source", deps.DisablePushdown, err)
		}
	}
}
