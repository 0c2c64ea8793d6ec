package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/reference"
	"recache/internal/store"
	"recache/internal/value"
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
// every corpus plan produces the reference evaluator's rows on the miss,
// the exact hit, and a second hit.
func TestVectorizedMatchesRowPath(t *testing.T) {
	for _, layout := range []cache.LayoutMode{cache.LayoutAuto, cache.LayoutFixedColumnar, cache.LayoutFixedParquet} {
		ds, orders := csvDataset(t), ordersDataset(t)
		plans := vecParityPlans(t, ds, orders)
		needed := map[string][]string{
			"t":      {"id", "qty", "price", "name"},
			"orders": {"okey", "total"},
		}
		mVec := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: layout})
		for name, mk := range plans {
			want := refRows(t, mk())
			for pass := 0; pass < 3; pass++ {
				mVec.BeginQuery()
				pv := mVec.Rewrite(mk(), needed)
				rv, _, err := Run(pv, Deps{Manager: mVec})
				if err != nil {
					t.Fatalf("layout %v %s pass %d: %v", layout, name, pass, err)
				}
				if !reflect.DeepEqual(rv.Rows, want) {
					t.Errorf("layout %v %s pass %d: %v != reference %v",
						layout, name, pass, rv.Rows, want)
				}
			}
		}
		if layout == cache.LayoutFixedColumnar && mVec.Stats().VectorizedScans == 0 {
			t.Error("columnar layout ran zero vectorized scans")
		}
	}
}

// TestVectorizedSubsumptionResidual checks the selection-kernel residual: a
// narrower hit on a wider cached range must re-filter to the reference
// evaluator's answer, as a batch scan of the entry.
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
	if want := refRows(t, narrow()); !reflect.DeepEqual(rSub.Rows, want) {
		t.Errorf("subsumed result %v != reference %v", rSub.Rows, want)
	}
}

// TestVectorizedLazyEntryReplaysBatches: a lazy entry has no store to batch
// over, but its replay decodes chunks of records into vectors and serves
// them as batches — a vectorized scan, unlike the miss that admitted it.
func TestVectorizedLazyEntryReplaysBatches(t *testing.T) {
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
	if got := m.Stats().VectorizedScans; got != 1 {
		t.Errorf("a miss and a lazy replay ran %d vectorized scans, want 1", got)
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

// TestRootBatchExit: every root — a column-permutation Project, a bare
// scan chain, an aggregate — hands a miss's and a hit's batches to the
// sink and still attributes the hit's scan to its entry.
func TestRootBatchExit(t *testing.T) {
	ds, orders := csvDataset(t), ordersDataset(t)
	plans := vecParityPlans(t, ds, orders)
	needed := map[string][]string{"t": {"id", "qty", "price", "name"}}
	for _, name := range []string{"project-cols", "bare-scan", "agg-sum-count"} {
		m := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: cache.LayoutFixedColumnar})
		run := func() (*Result, *QueryStats) {
			t.Helper()
			m.BeginQuery()
			res, st, err := Run(m.Rewrite(plans[name](), needed), Deps{Manager: m})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res, st
		}
		miss, st := run()
		if st.ResultBatches == 0 {
			t.Errorf("%s miss: ResultBatches = 0", name)
		}
		hit, st := run()
		if !reflect.DeepEqual(hit.Rows, miss.Rows) {
			t.Errorf("%s: hit %v != miss %v", name, hit.Rows, miss.Rows)
		}
		if st.ResultBatches == 0 || st.RowsOut != len(hit.Rows) {
			t.Errorf("%s hit: ResultBatches = %d, RowsOut = %d (%d rows)",
				name, st.ResultBatches, st.RowsOut, len(hit.Rows))
		}
		if e := m.Entries()[0]; e.VecScans != 1 || e.ScanNanos <= 0 {
			t.Errorf("%s hit: entry VecScans = %d, ScanNanos = %d; the exit must attribute the scan",
				name, e.VecScans, e.ScanNanos)
		}
	}
}

// Edge values the folds must agree with the reference on: the int64
// extremes (whose float64 sums round), and for floats NaN, ±0 and ±Inf.
var (
	edgeInts   = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 1 << 53, math.MaxInt64 - 1, math.MaxInt64}
	edgeFloats = []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, math.Inf(1)}
)

// sameValue is value equality with floats compared bit for bit, except
// that every NaN is one value: which NaN operand's payload an addition
// keeps is the hardware's operand order, which Go leaves to the compiler.
func sameValue(a, b value.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case value.Float:
		if a.F != a.F {
			return b.F != b.F
		}
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case value.Int:
		return a.I == b.I
	case value.String:
		return a.S == b.S
	case value.Bool:
		return a.B == b.B
	}
	return true
}

// foldSpecs are the aggregates FuzzVecAggregate folds over the columns of
// aggInput: COUNT(*), then COUNT/SUM/AVG/MIN/MAX of the int and the float
// column, and MIN/MAX of the string and the bool column.
var foldSpecs = []struct {
	fn  plan.AggFunc
	arg int
}{
	{plan.AggCount, -1},
	{plan.AggCount, 1}, {plan.AggSum, 1}, {plan.AggAvg, 1}, {plan.AggMin, 1}, {plan.AggMax, 1},
	{plan.AggCount, 2}, {plan.AggSum, 2}, {plan.AggAvg, 2}, {plan.AggMin, 2}, {plan.AggMax, 2},
	{plan.AggMin, 3}, {plan.AggMax, 3}, {plan.AggMin, 4}, {plan.AggMax, 4},
}

// aggInput draws the fuzz target's columns — an int group key with NULL
// keys, then int, float, string and bool arguments — and their batches.
// shape[0] sets the row count (0 to 3060, up to three full batches),
// shape[1] the key domain, shape[2] the NULLs (none, every argument NULL,
// sparse, or confined to one 64-row word), shape[3] the batching (the
// cursor's BatchRows chunks or shorter ones) and shape[4] how many rows a
// selection drops.
func aggInput(seed int64, shape []byte) (cols []*store.Vec, rows [][]value.Value, batches [][]int32) {
	at := func(i int) int {
		if i < len(shape) {
			return int(shape[i])
		}
		return 0
	}
	r := rand.New(rand.NewSource(seed))
	n, keys, nullMode := at(0)*12, 1+at(1)%64, at(2)%4
	nullWord := r.Intn(n/64 + 1)
	kinds := []value.Kind{value.Int, value.Int, value.Float, value.String, value.Bool}
	cols = make([]*store.Vec, len(kinds))
	for c, k := range kinds {
		cols[c] = &store.Vec{Kind: k}
	}
	rows = make([][]value.Value, n)
	for i := range rows {
		key := value.VInt(int64(r.Intn(keys) - keys/2))
		if r.Intn(16) == 0 {
			key = value.VInt(edgeInts[r.Intn(len(edgeInts))])
		}
		iv := value.VInt(int64(r.Intn(2001) - 1000))
		if r.Intn(4) == 0 {
			iv = value.VInt(edgeInts[r.Intn(len(edgeInts))])
		}
		fv := value.VFloat(float64(r.Intn(2001)-1000) / 8)
		if r.Intn(4) == 0 {
			fv = value.VFloat(edgeFloats[r.Intn(len(edgeFloats))])
		}
		row := []value.Value{key, iv, fv, value.VString(fmt.Sprint("s", r.Intn(100))), value.VBool(r.Intn(2) == 0)}
		for c := range row {
			switch {
			case c > 0 && nullMode == 1,
				nullMode == 2 && r.Intn(16) == 0,
				nullMode == 3 && i/64 == nullWord && r.Intn(2) == 0:
				row[c] = value.VNull
			}
		}
		for c, v := range row {
			cols[c].AppendVal(v)
		}
		rows[i] = row
	}
	drop := at(4) % 4
	for lo := 0; lo < n; {
		hi := min(n, lo+store.BatchRows)
		if at(3)%2 == 1 {
			hi = min(n, lo+1+r.Intn(store.BatchRows))
		}
		sel := []int32{}
		for i := lo; i < hi; i++ {
			if drop == 0 || r.Intn(4) >= int(drop) {
				sel = append(sel, int32(i))
			}
		}
		batches = append(batches, sel)
		lo = hi
	}
	return cols, rows, batches
}

// FuzzVecAggregate holds the batch folds to the reference evaluator's
// AggState: COUNT/SUM/AVG/MIN/MAX folded batch by batch, ungrouped
// (updateBatch) and grouped by an int key with NULL keys (groupIndex,
// foldGroups), must give the values AggState gives folding the same rows
// in order — floats bit for bit (sameValue), NULL for an empty or all-NULL
// input.
func FuzzVecAggregate(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 0})    // empty input
	f.Add(int64(2), []byte{90, 3, 1, 0, 0})   // every argument NULL
	f.Add(int64(3), []byte{255, 40, 2, 0, 1}) // three batches, sparse NULLs
	f.Add(int64(4), []byte{120, 63, 3, 1, 3}) // short batches, NULLs in one word
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		cols, rows, batches := aggInput(seed, shape)
		newAccs := func() []vaggAcc {
			accs := make([]vaggAcc, len(foldSpecs))
			for i, s := range foldSpecs {
				accs[i] = vaggAcc{fn: s.fn, arg: s.arg}
				if s.arg >= 0 {
					accs[i].kind = cols[s.arg].Kind
				}
			}
			return accs
		}
		newStates := func() []reference.AggState {
			st := make([]reference.AggState, len(foldSpecs))
			for i, s := range foldSpecs {
				st[i].Fn = s.fn
			}
			return st
		}
		update := func(st []reference.AggState, row []value.Value) {
			for i, s := range foldSpecs {
				if s.arg < 0 {
					st[i].Update(value.VNull, false)
				} else {
					st[i].Update(row[s.arg], true)
				}
			}
		}
		check := func(what string, accs []vaggAcc, st []reference.AggState) {
			t.Helper()
			for i := range accs {
				if got, want := accs[i].result(), st[i].Result(); !sameValue(got, want) {
					t.Fatalf("%s: agg %d (fn %v, arg %d) = %v, reference %v", what, i, foldSpecs[i].fn, foldSpecs[i].arg, got, want)
				}
			}
		}

		accs, st := newAccs(), newStates()
		gi := newGroupIndex([]int{0}, []value.Kind{value.Int})
		gaccs := make([][]vaggAcc, len(foldSpecs))
		groups := map[string][]reference.AggState{}
		for _, sel := range batches {
			for i := range accs {
				accs[i].updateBatch(cols, sel)
			}
			for _, r := range sel {
				update(st, rows[r])
				key := rows[r][0].String() + "\x00"
				if groups[key] == nil {
					groups[key] = newStates()
				}
				update(groups[key], rows[r])
			}
			if len(sel) == 0 {
				continue
			}
			gidx := gi.resolve(cols, sel)
			for ai := range gaccs {
				for len(gaccs[ai]) < len(gi.groups) {
					gaccs[ai] = append(gaccs[ai], newAccs()[ai])
				}
				foldGroups(gaccs[ai], cols, sel, gidx)
			}
		}
		check("ungrouped", accs, st)
		if len(gi.groups) != len(groups) {
			t.Fatalf("%d groups, reference %d", len(gi.groups), len(groups))
		}
		for g, grp := range gi.groups {
			want := groups[grp.sortKey]
			if want == nil {
				t.Fatalf("group %v not in the reference", grp.keys)
			}
			got := make([]vaggAcc, len(gaccs))
			for ai := range gaccs {
				got[ai] = gaccs[ai][g]
			}
			check(fmt.Sprint("group ", grp.keys), got, want)
		}
	})
}

// BenchmarkAggFold times one aggregate's fold over a NULL-free batch of
// BatchRows random values, under the full selection and a random 60 % one
// (the gather a subsumed hit's residual leaves). ns/row is per selected
// row.
func BenchmarkAggFold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	iv, fv := &store.Vec{Kind: value.Int}, &store.Vec{Kind: value.Float}
	var sel60 []int32
	for i := 0; i < store.BatchRows; i++ {
		iv.AppendVal(value.VInt(int64(r.Intn(1000))))
		fv.AppendVal(value.VFloat(r.Float64() * 1000))
		if r.Intn(10) < 6 {
			sel60 = append(sel60, int32(i))
		}
	}
	cols := []*store.Vec{iv, fv}
	full := make([]int32, store.BatchRows)
	for i := range full {
		full[i] = int32(i)
	}
	for _, c := range []struct {
		name string
		fn   plan.AggFunc
		arg  int
		sel  []int32
	}{
		{"count", plan.AggCount, 0, full},
		{"sum-int", plan.AggSum, 0, full},
		{"sum-float", plan.AggSum, 1, full},
		{"sum-float/sel=60", plan.AggSum, 1, sel60},
		{"min-int", plan.AggMin, 0, full},
		{"max-float", plan.AggMax, 1, full},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := vaggAcc{fn: c.fn, arg: c.arg, kind: cols[c.arg].Kind}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.updateBatch(cols, c.sel)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.sel)), "ns/row")
		})
	}
}
