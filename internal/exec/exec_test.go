package exec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"recache/internal/cache"
	"recache/internal/csvio"
	"recache/internal/eviction"
	"recache/internal/expr"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// --- fixtures ---

func csvDataset(t *testing.T) *plan.Dataset {
	t.Helper()
	schema := value.TRecord(
		value.F("id", value.TInt),
		value.F("qty", value.TInt),
		value.F("price", value.TFloat),
		value.F("name", value.TString),
	)
	content := "1|10|1.5|aa\n2|20|2.5|bb\n3|30|3.5|cc\n4|40|4.5|dd\n5|50|5.5|ee\n"
	p := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	prov, err := csvio.New(p, schema, csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Dataset{Name: "t", Format: plan.FormatCSV, Provider: prov}
}

func ordersDataset(t *testing.T) *plan.Dataset {
	t.Helper()
	schema := value.TRecord(
		value.F("okey", value.TInt),
		value.F("total", value.TFloat),
		value.F("items", value.TList(value.TRecord(
			value.F("qty", value.TInt),
			value.F("price", value.TFloat),
		))),
	)
	content := `{"okey":1,"total":100,"items":[{"qty":1,"price":10},{"qty":2,"price":20}]}
{"okey":2,"total":200,"items":[{"qty":3,"price":30}]}
{"okey":3,"total":300,"items":[]}
{"okey":4,"total":400,"items":[{"qty":4,"price":40},{"qty":5,"price":50},{"qty":6,"price":60}]}
`
	p := filepath.Join(t.TempDir(), "orders.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	prov, err := jsonio.New(p, schema)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Dataset{Name: "orders", Format: plan.FormatJSON, Provider: prov}
}

func mustAgg(t *testing.T, aggs []plan.AggSpec, child plan.Node) *plan.Aggregate {
	t.Helper()
	a, err := plan.NewAggregate(aggs, nil, nil, child)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func run(t *testing.T, root plan.Node, deps Deps) *Result {
	t.Helper()
	res, _, err := Run(root, deps)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- raw execution (no cache) ---

func TestScanSelectAggregateCSV(t *testing.T) {
	ds := csvDataset(t)
	sel := &plan.Select{
		Pred:  expr.Between(expr.C("qty"), expr.L(20), expr.L(40)),
		Child: &plan.Scan{DS: ds},
	}
	agg := mustAgg(t, []plan.AggSpec{
		{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"},
		{Func: plan.AggCount, Name: "n"},
	}, sel)
	res := run(t, agg, uncached(nil))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].F != 2.5+3.5+4.5 || res.Rows[0][1].I != 3 {
		t.Errorf("agg = %v", res.Rows[0])
	}
}

func TestUnnestAggregateJSON(t *testing.T) {
	ds := ordersDataset(t)
	sel := &plan.Select{Pred: nil, Child: &plan.Scan{DS: ds}}
	un, err := plan.NewUnnest(sel)
	if err != nil {
		t.Fatal(err)
	}
	sel2 := &plan.Select{
		Pred:  expr.Cmp(expr.OpGe, expr.C("items.qty"), expr.L(3)),
		Child: un,
	}
	agg := mustAgg(t, []plan.AggSpec{
		{Func: plan.AggSum, Arg: expr.C("items.price"), Name: "s"},
		{Func: plan.AggCount, Name: "n"},
	}, sel2)
	res := run(t, agg, uncached(nil))
	// qty>=3: price 30,40,50,60
	if res.Rows[0][0].F != 180 || res.Rows[0][1].I != 4 {
		t.Errorf("agg = %v", res.Rows[0])
	}
}

func TestUnnestDuplicatesParents(t *testing.T) {
	ds := ordersDataset(t)
	sel := &plan.Select{Child: &plan.Scan{DS: ds}}
	un, err := plan.NewUnnest(sel)
	if err != nil {
		t.Fatal(err)
	}
	agg := mustAgg(t, []plan.AggSpec{
		{Func: plan.AggSum, Arg: expr.C("total"), Name: "s"},
		{Func: plan.AggCount, Name: "n"},
	}, un)
	res := run(t, agg, uncached(nil))
	// Flattened rows: order1×2, order2×1, order3×0, order4×3 → 6 rows.
	if res.Rows[0][1].I != 6 {
		t.Errorf("count = %v, want 6", res.Rows[0][1])
	}
	if res.Rows[0][0].F != 100*2+200+400*3 {
		t.Errorf("sum(total) over flattened = %v", res.Rows[0][0])
	}
}

func TestGroupBy(t *testing.T) {
	ds := csvDataset(t)
	sel := &plan.Select{Child: &plan.Scan{DS: ds}}
	grp, err := plan.NewProject(
		[]expr.Expr{expr.Cmp(expr.OpGe, expr.C("qty"), expr.L(30)), expr.C("price")},
		[]string{"grp", "price"}, sel)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := plan.NewAggregate(
		[]plan.AggSpec{{Func: plan.AggCount, Name: "n"}},
		[]expr.Expr{expr.C("grp")}, []string{"grp"}, grp)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, agg, uncached(nil))
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Rows))
	}
	// Sorted by key: false (qty 10,20) then true (qty 30,40,50).
	if res.Rows[0][1].I != 2 || res.Rows[1][1].I != 3 {
		t.Errorf("group counts = %v", res.Rows)
	}
}

func TestHashJoin(t *testing.T) {
	left := csvDataset(t)
	// Second table with same key domain.
	schema := value.TRecord(
		value.F("rid", value.TInt),
		value.F("bonus", value.TFloat),
	)
	content := "1|0.1\n2|0.2\n2|0.25\n9|0.9\n"
	p := filepath.Join(t.TempDir(), "r.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rp, err := csvio.New(p, schema, csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	right := &plan.Dataset{Name: "r", Format: plan.FormatCSV, Provider: rp}
	j, err := plan.NewJoin(
		&plan.Select{Child: &plan.Scan{DS: left}},
		&plan.Select{Child: &plan.Scan{DS: right}},
		expr.C("id"), expr.C("rid"))
	if err != nil {
		t.Fatal(err)
	}
	agg := mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"},
		{Func: plan.AggSum, Arg: expr.C("bonus"), Name: "s"}}, j)
	res := run(t, agg, uncached(nil))
	// id=1 matches once, id=2 twice → 3 rows; bonus sum 0.1+0.2+0.25
	if res.Rows[0][0].I != 3 {
		t.Errorf("join count = %v", res.Rows[0][0])
	}
	if diff := res.Rows[0][1].F - 0.55; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("join sum = %v", res.Rows[0][1])
	}
}

// --- cached execution ---

func mgr(cfg cache.Config) *cache.Manager { return cache.NewManager(cfg) }

// buildAndRun rewrites the plan through the manager and runs it.
func buildAndRun(t *testing.T, m *cache.Manager, mk func() plan.Node, needed map[string][]string) *Result {
	t.Helper()
	m.BeginQuery()
	p := m.Rewrite(mk(), needed)
	res, _, err := Run(p, Deps{Manager: m})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExactCacheHitSameResults(t *testing.T) {
	ds := csvDataset(t)
	mk := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Between(expr.C("qty"), expr.L(20), expr.L(40)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"},
			{Func: plan.AggCount, Name: "n"},
		}, sel)
	}
	needed := map[string][]string{"t": {"qty", "price"}}
	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	r1 := buildAndRun(t, m, mk, needed)
	st := m.Stats()
	if st.Inserted != 1 {
		t.Fatalf("inserted = %d, want 1", st.Inserted)
	}
	r2 := buildAndRun(t, m, mk, needed)
	st = m.Stats()
	if st.ExactHits != 1 {
		t.Errorf("exact hits = %d, want 1", st.ExactHits)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Errorf("cached result differs:\n%v\n%v", r1.Rows, r2.Rows)
	}
}

func TestSubsumptionHitSameResults(t *testing.T) {
	ds := csvDataset(t)
	mkWide := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Between(expr.C("qty"), expr.L(10), expr.L(50)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	mkNarrow := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Between(expr.C("qty"), expr.L(20), expr.L(30)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	needed := map[string][]string{"t": {"qty"}}
	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	buildAndRun(t, m, mkWide, needed)
	rCached := buildAndRun(t, m, mkNarrow, needed)
	if m.Stats().SubsumedHits != 1 {
		t.Fatalf("subsumed hits = %d, want 1", m.Stats().SubsumedHits)
	}
	// Compare against uncached execution.
	rRaw := run(t, mkNarrow(), uncached(nil))
	if !reflect.DeepEqual(rCached.Rows, rRaw.Rows) {
		t.Errorf("subsumed result differs: %v vs %v", rCached.Rows, rRaw.Rows)
	}
	if rCached.Rows[0][0].I != 2 {
		t.Errorf("count = %v, want 2", rCached.Rows[0][0])
	}
}

func TestLazyCacheUpgradeOnReuse(t *testing.T) {
	ds := csvDataset(t)
	mk := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Cmp(expr.OpGe, expr.C("qty"), expr.L(30)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggSum, Arg: expr.C("price"), Name: "s"}}, sel)
	}
	needed := map[string][]string{"t": {"qty", "price"}}
	// The always-lazy baseline replays offsets forever, never upgrading.
	mBase := mgr(cache.Config{Admission: cache.AlwaysLazy})
	b1 := buildAndRun(t, mBase, mk, needed)
	b2 := buildAndRun(t, mBase, mk, needed)
	if !reflect.DeepEqual(b1.Rows, b2.Rows) {
		t.Errorf("lazy baseline results diverge: %v %v", b1.Rows, b2.Rows)
	}
	if e := mBase.Entries(); e[0].Mode != cache.Lazy || mBase.Stats().LazyUpgrades != 0 {
		t.Errorf("always-lazy baseline upgraded: mode=%v upgrades=%d",
			e[0].Mode, mBase.Stats().LazyUpgrades)
	}

	// ReCache (adaptive) with a zero threshold: first build goes lazy, the
	// first reuse upgrades it to an eager cache (§5.2).
	m := mgr(cache.Config{Admission: cache.Adaptive, Threshold: 1e-12, SampleSize: 2})
	r1 := buildAndRun(t, m, mk, needed)
	entries := m.Entries()
	if len(entries) != 1 || entries[0].Mode != cache.Lazy {
		t.Fatalf("expected one lazy entry, got %v", entries)
	}
	if len(entries[0].Offsets) != 3 {
		t.Errorf("lazy offsets = %d, want 3", len(entries[0].Offsets))
	}
	// Reuse → upgrade to eager.
	r2 := buildAndRun(t, m, mk, needed)
	if entries[0].Mode != cache.Eager || entries[0].Store == nil {
		t.Fatal("lazy entry not upgraded on reuse")
	}
	if m.Stats().LazyUpgrades != 1 {
		t.Errorf("LazyUpgrades = %d", m.Stats().LazyUpgrades)
	}
	// Third run scans the eager store.
	r3 := buildAndRun(t, m, mk, needed)
	if !reflect.DeepEqual(r1.Rows, r2.Rows) || !reflect.DeepEqual(r1.Rows, r3.Rows) {
		t.Errorf("results diverge across lazy/upgrade/eager: %v %v %v", r1.Rows, r2.Rows, r3.Rows)
	}
}

func TestNestedCachedFlatScan(t *testing.T) {
	ds := ordersDataset(t)
	mk := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Cmp(expr.OpGe, expr.C("total"), expr.L(100.0)),
			Child: &plan.Scan{DS: ds},
		}
		un, err := plan.NewUnnest(sel)
		if err != nil {
			t.Fatal(err)
		}
		sel2 := &plan.Select{
			Pred:  expr.Cmp(expr.OpGe, expr.C("items.qty"), expr.L(2)),
			Child: un,
		}
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggSum, Arg: expr.C("items.price"), Name: "s"},
			{Func: plan.AggCount, Name: "n"},
		}, sel2)
	}
	needed := map[string][]string{"orders": {"total", "items.qty", "items.price"}}
	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	r1 := buildAndRun(t, m, mk, needed)
	entries := m.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Store.Layout() != store.LayoutParquet {
		t.Errorf("nested payload layout = %v, want parquet", entries[0].Store.Layout())
	}
	r2 := buildAndRun(t, m, mk, needed)
	if m.Stats().ExactHits != 1 {
		t.Errorf("exact hits = %d", m.Stats().ExactHits)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Errorf("nested cached result differs: %v vs %v", r1.Rows, r2.Rows)
	}
	// qty>=2 among totals>=100: prices 20,30,40,50,60 → 200, count 5
	if r1.Rows[0][0].F != 200 || r1.Rows[0][1].I != 5 {
		t.Errorf("agg = %v", r1.Rows[0])
	}
}

func TestNestedRecordGranularityCachedScan(t *testing.T) {
	// Query without unnest over nested data: cache hit must use the
	// short-column per-record path.
	ds := ordersDataset(t)
	mk := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Cmp(expr.OpGt, expr.C("total"), expr.L(50.0)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggSum, Arg: expr.C("total"), Name: "s"},
			{Func: plan.AggCount, Name: "n"},
		}, sel)
	}
	needed := map[string][]string{"orders": {"total"}}
	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	r1 := buildAndRun(t, m, mk, needed)
	r2 := buildAndRun(t, m, mk, needed)
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Errorf("record-granularity cached result differs: %v vs %v", r1.Rows, r2.Rows)
	}
	if r1.Rows[0][1].I != 4 || r1.Rows[0][0].F != 1000 {
		t.Errorf("agg = %v", r1.Rows[0])
	}
}

func TestAdaptiveAdmissionSwitchesToLazy(t *testing.T) {
	ds := csvDataset(t)
	mk := func() plan.Node {
		sel := &plan.Select{Child: &plan.Scan{DS: ds}}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	// Zero-ish threshold: any caching overhead trips the lazy switch.
	m := mgr(cache.Config{Admission: cache.Adaptive, Threshold: 1e-12, SampleSize: 2})
	buildAndRun(t, m, mk, map[string][]string{"t": {}})
	entries := m.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Mode != cache.Lazy {
		t.Errorf("mode = %v, want lazy under tiny threshold", entries[0].Mode)
	}
	// Generous threshold: stays eager.
	ds2 := csvDataset(t)
	m2 := mgr(cache.Config{Admission: cache.Adaptive, Threshold: 0.9999, SampleSize: 2})
	mk2 := func() plan.Node {
		sel := &plan.Select{Child: &plan.Scan{DS: ds2}}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	buildAndRun(t, m2, mk2, map[string][]string{"t": {}})
	if e := m2.Entries(); len(e) != 1 || e[0].Mode != cache.Eager {
		t.Errorf("mode under generous threshold = %v, want eager", e[0].Mode)
	}
}

func TestWorkingSetSkipsSampling(t *testing.T) {
	ds := csvDataset(t)
	m := mgr(cache.Config{Admission: cache.Adaptive, Threshold: 1e-12, SampleSize: 2})
	// Disjoint predicates so the second query cannot hit the first entry
	// by subsumption.
	mkLow := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Cmp(expr.OpLe, expr.C("qty"), expr.L(20)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	mkHigh := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Cmp(expr.OpGe, expr.C("qty"), expr.L(40)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	needed := map[string][]string{"t": {"qty"}}
	buildAndRun(t, m, mkLow, needed) // first: lazy (tiny threshold)
	if e := m.Entries(); e[0].Mode != cache.Lazy {
		t.Fatalf("first entry mode = %v, want lazy", e[0].Mode)
	}
	// A lazy entry does not establish an eager working set.
	buildAndRun(t, m, mkHigh, needed)
	entries := m.Entries()
	if len(entries) != 2 || entries[1].Mode != cache.Lazy {
		t.Fatalf("second entry should sample and go lazy too: %v", entries)
	}
	// Reusing the first entry upgrades it to eager...
	buildAndRun(t, m, mkLow, needed)
	if entries[0].Mode != cache.Eager {
		t.Fatalf("reused entry mode = %v, want eager", entries[0].Mode)
	}
	// ...which establishes the working set: the next miss skips sampling
	// and caches eagerly despite the zero threshold (§5.2).
	mkMid := func() plan.Node {
		sel := &plan.Select{
			Pred:  expr.Between(expr.C("qty"), expr.L(25), expr.L(35)),
			Child: &plan.Scan{DS: ds},
		}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	buildAndRun(t, m, mkMid, needed)
	entries = m.Entries()
	if got := entries[len(entries)-1].Mode; got != cache.Eager {
		t.Errorf("working-set entry mode = %v, want eager", got)
	}
}

func TestEvictionUnderCapacity(t *testing.T) {
	ds := csvDataset(t)
	m := mgr(cache.Config{
		Admission: cache.AlwaysEager,
		Capacity:  120, // tiny: forces eviction
		Policy:    eviction.LRU{},
	})
	needed := map[string][]string{"t": {"qty", "price"}}
	// Disjoint single-row ranges: no subsumption between them.
	for lo := int64(10); lo <= 50; lo += 10 {
		lo := lo
		mk := func() plan.Node {
			sel := &plan.Select{
				Pred:  expr.Between(expr.C("qty"), expr.L(lo), expr.L(lo+5)),
				Child: &plan.Scan{DS: ds},
			}
			return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
		}
		buildAndRun(t, m, mk, needed)
	}
	st := m.Stats()
	if st.Inserted != 5 {
		t.Fatalf("inserted = %d, want 5", st.Inserted)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions under a tiny capacity")
	}
	if st.TotalBytes > 120 {
		t.Errorf("cache size %d exceeds capacity", st.TotalBytes)
	}
}

func TestAdmissionOffRunsRaw(t *testing.T) {
	ds := csvDataset(t)
	m := mgr(cache.Config{Admission: cache.Off})
	mk := func() plan.Node {
		sel := &plan.Select{Child: &plan.Scan{DS: ds}}
		return mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	}
	buildAndRun(t, m, mk, map[string][]string{"t": {}})
	buildAndRun(t, m, mk, map[string][]string{"t": {}})
	st := m.Stats()
	if st.Inserted != 0 || st.ExactHits != 0 {
		t.Errorf("Off mode cached anyway: %+v", st)
	}
}

func TestProjectOperator(t *testing.T) {
	ds := csvDataset(t)
	sel := &plan.Select{Child: &plan.Scan{DS: ds}}
	proj, err := plan.NewProject(
		[]expr.Expr{expr.C("id"), expr.Cmp(expr.OpMul, expr.C("price"), expr.L(2.0))},
		[]string{"id", "dbl"}, sel)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, proj, uncached(nil))
	if len(res.Rows) != 5 || res.Rows[0][1].F != 3.0 {
		t.Errorf("project rows = %v", res.Rows)
	}
	if res.Columns[1] != "dbl" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	ds := csvDataset(t)
	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	m.BeginQuery()
	sel := &plan.Select{Child: &plan.Scan{DS: ds}}
	agg := mustAgg(t, []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}, sel)
	p := m.Rewrite(agg, map[string][]string{"t": {}})
	_, st, err := Run(p, Deps{Manager: m})
	if err != nil {
		t.Fatal(err)
	}
	if st.Wall <= 0 {
		t.Error("Wall not measured")
	}
	if st.RowsOut != 1 {
		t.Errorf("RowsOut = %d", st.RowsOut)
	}
	if st.Overhead() < 0 || st.Overhead() > 1 {
		t.Errorf("Overhead = %g", st.Overhead())
	}
}
