package exec

import (
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/value"
)

// pushScanIDs runs pushScan for id BETWEEN 2 AND 4 with only qty needed and
// returns the ids the callback saw, the skip count and which path ran.
func pushScanIDs(t *testing.T, prov plan.ScanProvider) (ids []int64, skipped int64, below bool) {
	t.Helper()
	pd, residual := expr.ExtractPushdown(expr.Between(expr.C("id"), expr.L(2), expr.L(4)), prov.Schema())
	if pd == nil || residual != nil {
		t.Fatal("predicate not fully pushable")
	}
	skipped, below, err := pushScan(prov, pd, []value.Path{{"qty"}}, func(rec value.Value, off int64, complete func() error) error {
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
	return ids, skipped, below
}

// A provider that filters below its parse gets the pushdown itself.
func TestPushScanBelowParse(t *testing.T) {
	ids, skipped, below := pushScanIDs(t, csvDataset(t).Provider)
	if len(ids) != 3 || ids[0] != 2 || ids[2] != 4 {
		t.Errorf("ids = %v, want [2 3 4]", ids)
	}
	if skipped != 2 || !below {
		t.Errorf("skipped, below = %d, %v; want 2, true", skipped, below)
	}
}

// A provider without plan.PushdownScanner is filtered on its decoded rows.
func TestPushScanRowFallback(t *testing.T) {
	plain := struct{ plan.ScanProvider }{csvDataset(t).Provider}
	ids, skipped, below := pushScanIDs(t, plain)
	if len(ids) != 3 || ids[0] != 2 || ids[2] != 4 {
		t.Errorf("ids = %v, want [2 3 4]", ids)
	}
	if skipped != 2 || below {
		t.Errorf("skipped, below = %d, %v; want 2, false", skipped, below)
	}
}
