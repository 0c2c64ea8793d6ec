package cache

import (
	"testing"
	"time"

	"recache/internal/eviction"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// fakeProvider implements plan.ScanProvider over in-memory records.
type fakeProvider struct {
	schema *value.Type
	recs   []value.Value
}

func (f *fakeProvider) Schema() *value.Type { return f.schema }
func (f *fakeProvider) NumRecords() int     { return len(f.recs) }
func (f *fakeProvider) SizeBytes() int64    { return int64(len(f.recs)) * 100 }
func (f *fakeProvider) Scan(needed []value.Path, fn plan.ScanFunc) error {
	for i, rec := range f.recs {
		if err := fn(rec, int64(i*100), func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}
func (f *fakeProvider) ScanOffsets(offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	for _, off := range offsets {
		i := int(off / 100)
		if err := fn(f.recs[i], off, func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

func flatDataset(name string) *plan.Dataset {
	schema := value.TRecord(value.F("a", value.TInt), value.F("c", value.TFloat))
	var recs []value.Value
	for i := 0; i < 20; i++ {
		recs = append(recs, value.VRecord(value.VInt(int64(i)), value.VFloat(float64(i)/2)))
	}
	return &plan.Dataset{Name: name, Format: plan.FormatCSV,
		Provider: &fakeProvider{schema: schema, recs: recs}}
}

func nestedDataset(name string) *plan.Dataset {
	schema := value.TRecord(
		value.F("a", value.TInt),
		value.F("xs", value.TList(value.TRecord(value.F("q", value.TInt)))),
	)
	var recs []value.Value
	for i := 0; i < 10; i++ {
		// Three list elements per record: the flattened view is 3× the
		// record count, which is what the layout cost model reasons about.
		recs = append(recs, value.VRecord(value.VInt(int64(i)),
			value.VList(
				value.VRecord(value.VInt(int64(i*10))),
				value.VRecord(value.VInt(int64(i*10+1))),
				value.VRecord(value.VInt(int64(i*10+2))))))
	}
	return &plan.Dataset{Name: name, Format: plan.FormatJSON,
		Provider: &fakeProvider{schema: schema, recs: recs}}
}

// buildEntry runs a BuildSpec by hand: select everything, store eagerly.
func buildEntry(t *testing.T, m *Manager, ds *plan.Dataset, pred expr.Expr) *Entry {
	t.Helper()
	return buildCostly(t, m, ds, pred, 1000)
}

func TestRewriteExactAndSubsumed(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	ds := flatDataset("t")
	pred := expr.Between(expr.C("a"), expr.L(2), expr.L(15))
	m.BeginQuery()
	buildEntry(t, m, ds, pred)

	// Exact match.
	m.BeginQuery()
	sel := &plan.Select{Pred: expr.Between(expr.C("a"), expr.L(2), expr.L(15)),
		Child: &plan.Scan{DS: ds}}
	out := m.Rewrite(sel, map[string][]string{"t": {"a"}})
	cs, ok := out.(*plan.CachedScan)
	if !ok {
		t.Fatalf("exact rewrite = %T, want CachedScan", out)
	}
	if cs.Residual != nil || cs.Flat {
		t.Errorf("exact hit should have nil residual, record granularity: %+v", cs)
	}
	if m.Stats().ExactHits != 1 {
		t.Errorf("exact hits = %d", m.Stats().ExactHits)
	}

	// Subsumed match gets the full predicate as residual.
	m.BeginQuery()
	narrow := &plan.Select{Pred: expr.Between(expr.C("a"), expr.L(5), expr.L(10)),
		Child: &plan.Scan{DS: ds}}
	out = m.Rewrite(narrow, map[string][]string{"t": {"a"}})
	cs, ok = out.(*plan.CachedScan)
	if !ok {
		t.Fatalf("subsumed rewrite = %T", out)
	}
	if cs.Residual == nil {
		t.Error("subsumed hit needs a residual predicate")
	}
	if m.Stats().SubsumedHits != 1 {
		t.Errorf("subsumed hits = %d", m.Stats().SubsumedHits)
	}

	// Non-covered query misses and is wrapped for materialization.
	m.BeginQuery()
	wide := &plan.Select{Pred: expr.Between(expr.C("a"), expr.L(0), expr.L(19)),
		Child: &plan.Scan{DS: ds}}
	out = m.Rewrite(wide, map[string][]string{"t": {"a"}})
	if _, ok := out.(*plan.Materialize); !ok {
		t.Fatalf("miss rewrite = %T, want Materialize", out)
	}
}

func TestRewriteUnnestPattern(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	ds := nestedDataset("n")
	m.BeginQuery()
	buildEntry(t, m, ds, nil) // full-table cache

	sel := &plan.Select{Pred: nil, Child: &plan.Scan{DS: ds}}
	un, err := plan.NewUnnest(sel)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginQuery()
	out := m.Rewrite(un, map[string][]string{"n": {"a", "xs.q"}})
	cs, ok := out.(*plan.CachedScan)
	if !ok {
		t.Fatalf("unnest rewrite = %T, want CachedScan", out)
	}
	if !cs.Flat {
		t.Error("unnest hit should use flat granularity")
	}
	if len(cs.Out.Fields) != 2 {
		t.Errorf("out fields = %v", cs.Out)
	}
}

func TestRecordGranularityExcludesRepeatedCols(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	ds := nestedDataset("n")
	m.BeginQuery()
	buildEntry(t, m, ds, nil)
	sel := &plan.Select{Pred: nil, Child: &plan.Scan{DS: ds}}
	m.BeginQuery()
	out := m.Rewrite(sel, map[string][]string{"n": {"a", "xs.q"}})
	cs, ok := out.(*plan.CachedScan)
	if !ok {
		t.Fatalf("rewrite = %T", out)
	}
	if cs.Flat {
		t.Error("select-without-unnest should use record granularity")
	}
	for _, f := range cs.Out.Fields {
		if f.Name == "xs.q" {
			t.Error("record-granularity scan must not project repeated columns")
		}
	}
}

func TestOffModeNeverRewrites(t *testing.T) {
	m := NewManager(Config{Admission: Off})
	ds := flatDataset("t")
	sel := &plan.Select{Pred: nil, Child: &plan.Scan{DS: ds}}
	out := m.Rewrite(sel, nil)
	if out != sel {
		t.Error("Off mode should leave the plan untouched")
	}
}

func TestEvictionRespectsCapacityAndIndexes(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 300, Policy: eviction.LRU{}})
	ds := flatDataset("t")
	var preds []expr.Expr
	for lo := int64(0); lo < 20; lo += 4 {
		preds = append(preds, expr.Between(expr.C("a"), expr.L(lo), expr.L(lo+3)))
	}
	for _, p := range preds {
		m.BeginQuery()
		buildEntry(t, m, ds, p)
	}
	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if st.TotalBytes > 700 {
		t.Errorf("size %d over capacity", st.TotalBytes)
	}
	// Evicted entries must be gone from the subsumption index: rewriting
	// with a range covered only by an evicted entry must miss.
	survivors := map[string]bool{}
	for _, e := range m.Entries() {
		survivors[e.PredCanon] = true
	}
	for _, p := range preds {
		if survivors[p.Canonical()] {
			continue
		}
		m.BeginQuery()
		sel := &plan.Select{Pred: p, Child: &plan.Scan{DS: ds}}
		out := m.Rewrite(sel, map[string][]string{"t": {"a"}})
		if _, ok := out.(*plan.CachedScan); ok {
			t.Errorf("evicted predicate %s still hits", p.Canonical())
		}
	}
}

func TestDuplicateBuildIgnored(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	ds := flatDataset("t")
	pred := expr.Between(expr.C("a"), expr.L(1), expr.L(5))
	m.BeginQuery()
	buildEntry(t, m, ds, pred)
	ranges, _ := expr.ExtractRanges(pred, ds.Schema())
	spec := &BuildSpec{Manager: m, Dataset: ds, Pred: pred,
		PredCanon: pred.Canonical(), Ranges: ranges}
	if e := m.CompleteBuild(spec, nil, []int64{0}, Lazy, 1, 1); e != nil {
		t.Error("duplicate CompleteBuild should return nil")
	}
	if m.Stats().Inserted != 1 {
		t.Errorf("inserted = %d", m.Stats().Inserted)
	}
}

func TestUpgradeLazyAccounting(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysLazy})
	ds := flatDataset("t")
	ranges, _ := expr.ExtractRanges(nil, ds.Schema())
	spec := &BuildSpec{Manager: m, Dataset: ds, PredCanon: "true", Ranges: ranges}
	e := m.CompleteBuild(spec, nil, []int64{0, 100, 200}, Lazy, 1000, 10)
	if e.Mode != Lazy || e.SizeBytes() != 3*8+64 {
		t.Fatalf("lazy entry wrong: %+v", e)
	}
	before := m.Stats().TotalBytes
	b, _ := store.NewBuilder(store.LayoutColumnar, ds.Schema())
	_ = b.Add(value.VRecord(value.VInt(1), value.VFloat(2)))
	st := b.Finish()
	m.UpgradeLazy(e, st, 555, 777)
	if e.Mode != Eager || e.Store == nil || e.Offsets != nil {
		t.Error("upgrade did not convert the entry")
	}
	if e.CacheNanos != 10+555 {
		t.Errorf("CacheNanos = %d", e.CacheNanos)
	}
	if e.ScanNanos != 777 {
		t.Errorf("ScanNanos = %d", e.ScanNanos)
	}
	if m.Stats().TotalBytes == before {
		t.Error("total bytes did not change on upgrade")
	}
	// Upgrading twice is a no-op.
	m.UpgradeLazy(e, st, 1, 1)
	if e.CacheNanos != 565 {
		t.Errorf("double upgrade changed accounting: %d", e.CacheNanos)
	}
}

func TestRecordScanDrivesLayoutSwitch(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Layout: LayoutAuto})
	ds := nestedDataset("n")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	if e.LayoutOf() != store.LayoutParquet {
		t.Fatalf("nested default layout = %v", e.LayoutOf())
	}
	// Feed flat-granularity observations with heavy compute cost: the cost
	// model (eqs. 1-3) must switch the entry to columnar.
	R := int64(e.Store.NumFlatRows())
	for i := 0; i < 10; i++ {
		m.RecordScan(e, store.ScanStats{
			DataNanos:    1000,
			ComputeNanos: 5000,
			RowsScanned:  R,
		}, 2, 6000)
	}
	if e.LayoutOf() != store.LayoutColumnar {
		t.Errorf("layout after compute-heavy scans = %v, want columnar", e.LayoutOf())
	}
	if m.Stats().LayoutSwitches != 1 {
		t.Errorf("switches = %d", m.Stats().LayoutSwitches)
	}
	// And back: record-granularity observations where Parquet would scan
	// 1/card of the rows.
	nRec := int64(e.Store.NumRecords())
	for i := 0; i < 400; i++ {
		m.RecordScan(e, store.ScanStats{
			DataNanos:   8000,
			RowsScanned: nRec,
		}, 1, 8000)
		if e.LayoutOf() == store.LayoutParquet {
			break
		}
	}
	if e.LayoutOf() != store.LayoutParquet {
		t.Errorf("layout never switched back to parquet")
	}
}

func TestFixedLayoutNeverSwitches(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Layout: LayoutFixedParquet})
	ds := nestedDataset("n")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	R := int64(e.Store.NumFlatRows())
	for i := 0; i < 50; i++ {
		m.RecordScan(e, store.ScanStats{DataNanos: 100, ComputeNanos: 100000, RowsScanned: R}, 2, 100100)
	}
	if e.LayoutOf() != store.LayoutParquet || m.Stats().LayoutSwitches != 0 {
		t.Errorf("fixed layout switched: %v, switches=%d", e.LayoutOf(), m.Stats().LayoutSwitches)
	}
}

func TestOracleFeedsOfflinePolicies(t *testing.T) {
	called := false
	m := NewManager(Config{
		Admission: AlwaysEager,
		Capacity:  200,
		Policy:    eviction.FarthestFirst{},
		Oracle: func(e *Entry, now int64) int64 {
			called = true
			return now + int64(e.ID)
		},
	})
	ds := flatDataset("t")
	for lo := int64(0); lo < 16; lo += 4 {
		m.BeginQuery()
		buildEntry(t, m, ds, expr.Between(expr.C("a"), expr.L(lo), expr.L(lo+3)))
	}
	if !called {
		t.Error("oracle never consulted")
	}
}

func TestFreezeBenefitUsesInsertTimeComponents(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, FreezeBenefit: true})
	ds := flatDataset("t")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	e.OpNanos = 999999 // live change
	it := m.itemFor(e)
	if it.OpNanos != 1000 {
		t.Errorf("frozen item OpNanos = %d, want insert-time 1000", it.OpNanos)
	}
	m2 := NewManager(Config{Admission: AlwaysEager})
	m2.BeginQuery()
	e2 := buildEntry(t, m2, ds, expr.Cmp(expr.OpGe, expr.C("a"), expr.L(0)))
	e2.OpNanos = 999999
	if it2 := m2.itemFor(e2); it2.OpNanos != 999999 {
		t.Errorf("live item OpNanos = %d, want 999999", it2.OpNanos)
	}
}

func TestChooseLayoutModes(t *testing.T) {
	flat, nested := flatDataset("f"), nestedDataset("n")
	cases := []struct {
		mode LayoutMode
		flat store.Layout
		nest store.Layout
	}{
		{LayoutAuto, store.LayoutColumnar, store.LayoutParquet},
		{LayoutFixedParquet, store.LayoutParquet, store.LayoutParquet},
		{LayoutFixedColumnar, store.LayoutColumnar, store.LayoutColumnar},
	}
	for _, c := range cases {
		m := NewManager(Config{Layout: c.mode})
		if got := m.ChooseLayout(flat); got != c.flat {
			t.Errorf("mode %v flat = %v, want %v", c.mode, got, c.flat)
		}
		if got := m.ChooseLayout(nested); got != c.nest {
			t.Errorf("mode %v nested = %v, want %v", c.mode, got, c.nest)
		}
	}
}

func TestEntryString(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	ds := flatDataset("t")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	if s := e.String(); s == "" {
		t.Error("empty String()")
	}
	if e.Key() != "t|true" {
		t.Errorf("Key = %q", e.Key())
	}
}

func TestLinearSubsumptionMatchesRTree(t *testing.T) {
	for _, linear := range []bool{false, true} {
		m := NewManager(Config{Admission: AlwaysEager, LinearSubsumption: linear})
		ds := flatDataset("t")
		m.BeginQuery()
		buildEntry(t, m, ds, expr.Between(expr.C("a"), expr.L(0), expr.L(18)))
		m.BeginQuery()
		sel := &plan.Select{Pred: expr.Between(expr.C("a"), expr.L(3), expr.L(9)),
			Child: &plan.Scan{DS: ds}}
		out := m.Rewrite(sel, map[string][]string{"t": {"a"}})
		if _, ok := out.(*plan.CachedScan); !ok {
			t.Errorf("linear=%v: subsumption missed", linear)
		}
	}
}

func TestRecordScanReturnsConversionDuration(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Layout: LayoutAuto})
	ds := nestedDataset("n")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	R := int64(e.Store.NumFlatRows())
	var conv time.Duration
	for i := 0; i < 10 && conv == 0; i++ {
		conv = m.RecordScan(e, store.ScanStats{DataNanos: 1000, ComputeNanos: 8000, RowsScanned: R}, 2, 9000)
	}
	if conv <= 0 {
		t.Error("conversion duration never reported")
	}
}
