package exec

import (
	"reflect"
	"testing"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
)

// vecParityPlans is the exec-level vectorization corpus: every plan shape
// the vectorized pipeline claims, built fresh per run (Rewrite mutates
// plans in place).
func vecParityPlans(t *testing.T, ds, orders *plan.Dataset) map[string]func() plan.Node {
	t.Helper()
	sel := func(pred expr.Expr) *plan.Select {
		return &plan.Select{Pred: pred, Child: &plan.Scan{DS: ds}}
	}
	return map[string]func() plan.Node{
		"agg-sum-count": func() plan.Node {
			return mustAgg(t, []plan.AggSpec{
				{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"},
				{Func: plan.AggCount, Name: "n"},
			}, sel(expr.Between(expr.C("qty"), expr.L(20), expr.L(40))))
		},
		"agg-min-max-avg": func() plan.Node {
			return mustAgg(t, []plan.AggSpec{
				{Func: plan.AggMin, Arg: expr.C("price"), Name: "mn"},
				{Func: plan.AggMax, Arg: expr.C("name"), Name: "mx"},
				{Func: plan.AggAvg, Arg: expr.C("qty"), Name: "av"},
				{Func: plan.AggCount, Arg: expr.C("id"), Name: "n"},
			}, sel(expr.Cmp(expr.OpGe, expr.C("qty"), expr.L(20))))
		},
		"agg-empty-input": func() plan.Node {
			return mustAgg(t, []plan.AggSpec{
				{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"},
				{Func: plan.AggMin, Arg: expr.C("qty"), Name: "mn"},
				{Func: plan.AggCount, Name: "n"},
			}, sel(expr.Cmp(expr.OpGt, expr.C("qty"), expr.L(1000))))
		},
		"group-by": func() plan.Node {
			a, err := plan.NewAggregate(
				[]plan.AggSpec{
					{Func: plan.AggCount, Name: "n"},
					{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"},
				},
				[]expr.Expr{expr.C("name")}, []string{"name"},
				sel(expr.Cmp(expr.OpGe, expr.C("qty"), expr.L(10))))
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"project-cols": func() plan.Node {
			p, err := plan.NewProject(
				[]expr.Expr{expr.C("name"), expr.C("price")},
				[]string{"name", "price"},
				sel(expr.Cmp(expr.OpGt, expr.C("qty"), expr.L(25))))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"bare-scan": func() plan.Node {
			return sel(expr.Between(expr.C("price"), expr.L(2.0), expr.L(5.0)))
		},
		"nested-records": func() plan.Node {
			return mustAgg(t, []plan.AggSpec{
				{Func: plan.AggSum, Arg: expr.C("total"), Name: "s"},
				{Func: plan.AggCount, Name: "n"},
			}, &plan.Select{
				Pred:  expr.Cmp(expr.OpGe, expr.C("okey"), expr.L(2)),
				Child: &plan.Scan{DS: orders},
			})
		},
	}
}

// TestVectorizedMatchesRowPath is the exec-level differential parity test:
// every corpus plan produces identical results through the vectorized and
// row pipelines, on the miss, the exact hit, and a second hit.
func TestVectorizedMatchesRowPath(t *testing.T) {
	for _, layout := range []cache.LayoutMode{cache.LayoutAuto, cache.LayoutFixedColumnar, cache.LayoutFixedParquet} {
		ds, orders := csvDataset(t), ordersDataset(t)
		plans := vecParityPlans(t, ds, orders)
		needed := map[string][]string{
			"t":      {"id", "qty", "price", "name"},
			"orders": {"okey", "total"},
		}
		mVec := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: layout})
		mRow := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: layout})
		for name, mk := range plans {
			for pass := 0; pass < 3; pass++ {
				mVec.BeginQuery()
				pv := mVec.Rewrite(mk(), needed)
				rv, _, err := Run(pv, Deps{Manager: mVec})
				if err != nil {
					t.Fatalf("layout %v %s pass %d (vec): %v", layout, name, pass, err)
				}
				mRow.BeginQuery()
				pr := mRow.Rewrite(mk(), needed)
				rr, _, err := Run(pr, Deps{Manager: mRow, DisableVectorized: true})
				if err != nil {
					t.Fatalf("layout %v %s pass %d (row): %v", layout, name, pass, err)
				}
				if !reflect.DeepEqual(rv.Rows, rr.Rows) {
					t.Errorf("layout %v %s pass %d: vectorized %v != row %v",
						layout, name, pass, rv.Rows, rr.Rows)
				}
			}
		}
		if layout == cache.LayoutFixedColumnar && mVec.Stats().VectorizedScans == 0 {
			t.Error("columnar layout ran zero vectorized scans")
		}
		if mRow.Stats().VectorizedScans != 0 {
			t.Errorf("DisableVectorized engine ran %d vectorized scans", mRow.Stats().VectorizedScans)
		}
	}
}

// TestVectorizedSubsumptionResidual checks the selection-kernel residual: a
// narrower hit on a wider cached range must re-filter identically in both
// flavors, and the vectorized flavor must actually engage.
func TestVectorizedSubsumptionResidual(t *testing.T) {
	ds := csvDataset(t)
	needed := map[string][]string{"t": {"qty", "price"}}
	wide := func() plan.Node {
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}},
			&plan.Select{
				Pred:  expr.Between(expr.C("qty"), expr.L(10), expr.L(50)),
				Child: &plan.Scan{DS: ds},
			})
	}
	narrow := func() plan.Node {
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"},
		}, &plan.Select{
			Pred:  expr.Between(expr.C("qty"), expr.L(20), expr.L(30)),
			Child: &plan.Scan{DS: ds},
		})
	}
	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	buildAndRun(t, m, wide, needed)
	rSub := buildAndRun(t, m, narrow, needed)
	if m.Stats().SubsumedHits != 1 {
		t.Fatalf("subsumed hits = %d", m.Stats().SubsumedHits)
	}
	if m.Stats().VectorizedScans != 1 {
		t.Fatalf("vectorized scans = %d, want 1 (residual should run as kernels)",
			m.Stats().VectorizedScans)
	}
	rRaw := run(t, narrow(), Deps{})
	if !reflect.DeepEqual(rSub.Rows, rRaw.Rows) {
		t.Errorf("subsumed vectorized result %v != raw %v", rSub.Rows, rRaw.Rows)
	}
}

// TestVectorizedLazyEntryFallsBack: a lazy entry has no store to batch
// over; the vectorized pipeline must hand the execution to the row path's
// offset replay.
func TestVectorizedLazyEntryFallsBack(t *testing.T) {
	ds := csvDataset(t)
	needed := map[string][]string{"t": {"qty", "price"}}
	mk := func() plan.Node {
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"}},
			&plan.Select{
				Pred:  expr.Cmp(expr.OpGe, expr.C("qty"), expr.L(30)),
				Child: &plan.Scan{DS: ds},
			})
	}
	m := mgr(cache.Config{Admission: cache.AlwaysLazy})
	r1 := buildAndRun(t, m, mk, needed)
	r2 := buildAndRun(t, m, mk, needed)
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Errorf("lazy replay diverged: %v %v", r1.Rows, r2.Rows)
	}
	if m.Stats().VectorizedScans != 0 {
		t.Errorf("lazy entries ran %d vectorized scans", m.Stats().VectorizedScans)
	}
	// The replay must still attribute its scan time to the entry.
	if e := m.Entries()[0]; e.ScanNanos == 0 {
		t.Error("lazy replay left the entry's ScanNanos unattributed")
	}
}

// TestLazyReplayRecordsPerEntryScanTime pins the CacheScanNanos fix at the
// query level: a query over two cached entries (a join of two hits) must
// attribute scan time to both entries individually.
func TestPerEntryScanAttributionAcrossJoin(t *testing.T) {
	ds, orders := csvDataset(t), ordersDataset(t)
	needed := map[string][]string{
		"t":      {"id", "price"},
		"orders": {"okey", "total"},
	}
	mk := func() plan.Node {
		left := &plan.Select{Pred: nil, Child: &plan.Scan{DS: ds}}
		right := &plan.Select{Pred: nil, Child: &plan.Scan{DS: orders}}
		j, err := plan.NewJoin(left, right, expr.C("id"), expr.C("okey"))
		if err != nil {
			t.Fatal(err)
		}
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: expr.C("total"), Name: "s"},
		}, j)
	}
	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	buildAndRun(t, m, mk, needed) // misses: builds both entries
	buildAndRun(t, m, mk, needed) // hits: scans both entries
	entries := m.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	for _, e := range entries {
		if e.ScanNanos <= 0 {
			t.Errorf("entry %d (%s) has no attributed scan time", e.ID, e.Dataset.Name)
		}
	}
}

// TestVectorizedScanStatsFeedAdvisor: vectorized scans must report batches
// and rows into RecordScan so the advisor and counters see them.
func TestVectorizedScanStatsFeedAdvisor(t *testing.T) {
	ds := csvDataset(t)
	needed := map[string][]string{"t": {"qty", "price"}}
	mk := func() plan.Node {
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}},
			&plan.Select{
				Pred:  expr.Between(expr.C("qty"), expr.L(10), expr.L(50)),
				Child: &plan.Scan{DS: ds},
			})
	}
	m := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: cache.LayoutFixedColumnar})
	buildAndRun(t, m, mk, needed)
	buildAndRun(t, m, mk, needed)
	st := m.Stats()
	if st.VectorizedScans != 1 || st.VectorizedBatches < 1 {
		t.Errorf("stats = %+v, want 1 vectorized scan with >=1 batch", st)
	}
	e := m.Entries()[0]
	if e.VecScans != 1 {
		t.Errorf("entry VecScans = %d, want 1", e.VecScans)
	}
	if e.Store.Layout() != store.LayoutColumnar {
		t.Errorf("layout = %v", e.Store.Layout())
	}
}

// TestRootBatchExit: a batch-native root — a column-permutation Project or a
// bare scan chain — hands a hit's batches to the sink and still attributes
// the scan to its entry; misses, aggregate roots and DisableVectorized keep
// the row sink.
func TestRootBatchExit(t *testing.T) {
	ds, orders := csvDataset(t), ordersDataset(t)
	plans := vecParityPlans(t, ds, orders)
	needed := map[string][]string{"t": {"id", "qty", "price", "name"}}
	for _, c := range []struct {
		plan  string
		batch bool
	}{{"project-cols", true}, {"bare-scan", true}, {"agg-sum-count", false}} {
		m := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: cache.LayoutFixedColumnar})
		run := func(deps Deps) (*Result, *QueryStats) {
			t.Helper()
			m.BeginQuery()
			res, st, err := Run(m.Rewrite(plans[c.plan](), needed), deps)
			if err != nil {
				t.Fatalf("%s: %v", c.plan, err)
			}
			return res, st
		}
		miss, st := run(Deps{Manager: m})
		if st.ResultBatches != 0 {
			t.Errorf("%s miss: ResultBatches = %d, want 0 (raw scan)", c.plan, st.ResultBatches)
		}
		m.BeginQuery()
		if got := BatchResultInfo(m.Rewrite(plans[c.plan](), needed), m, false); got != c.batch {
			t.Errorf("%s: BatchResultInfo = %v, want %v", c.plan, got, c.batch)
		}
		hit, st := run(Deps{Manager: m})
		if !reflect.DeepEqual(hit.Rows, miss.Rows) {
			t.Errorf("%s: hit %v != miss %v", c.plan, hit.Rows, miss.Rows)
		}
		if c.batch != (st.ResultBatches > 0) || st.RowsOut != len(hit.Rows) {
			t.Errorf("%s hit: ResultBatches = %d, RowsOut = %d (%d rows), want batch exit %v",
				c.plan, st.ResultBatches, st.RowsOut, len(hit.Rows), c.batch)
		}
		if e := m.Entries()[0]; e.VecScans != 1 || e.ScanNanos <= 0 {
			t.Errorf("%s hit: entry VecScans = %d, ScanNanos = %d; the exit must attribute the scan",
				c.plan, e.VecScans, e.ScanNanos)
		}
		off, st := run(Deps{Manager: m, DisableVectorized: true})
		if st.ResultBatches != 0 || !reflect.DeepEqual(off.Rows, miss.Rows) {
			t.Errorf("%s DisableVectorized: ResultBatches = %d, rows %v", c.plan, st.ResultBatches, off.Rows)
		}
	}
}
