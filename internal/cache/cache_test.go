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
	b, _ := store.NewBuilder(store.LayoutParquet, ds.Schema())
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

// flattening is the observation of a flattening read that expanded the
// Parquet form of a nested entry: D_i, C_i and r_i = R.
func flattening(e *Entry, data, compute int64) store.ScanStats {
	return store.ScanStats{DataNanos: data, ComputeNanos: compute, RowsScanned: int64(e.Store.NumFlatRows())}
}

// TestRecordScanDrivesLayoutSwitch: under LayoutAuto, flattening reads whose
// expansions outgrow the derivation (eqs. 1–3 with r_i = R) attach the
// flattened view beside the Parquet payload, charged by the bytes it does
// not share, and record scans neither attach nor drop it.
func TestRecordScanDrivesLayoutSwitch(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Layout: LayoutAuto})
	ds := nestedDataset("n")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	payload, before := e.Store, m.Stats().TotalBytes
	if e.view != nil || e.layout() != store.LayoutParquet {
		t.Fatalf("a new nested entry reads %v with view %v", e.layout(), e.view)
	}
	// One read never pays: C_1 > D_1 + C_1 cannot hold.
	m.RecordScan(e, flattening(e, 1000, 5000), 6000)
	if e.view != nil {
		t.Fatal("one flattening read attached the view")
	}
	for i := 0; i < 10 && e.view == nil; i++ {
		m.RecordScan(e, flattening(e, 1000, 5000), 6000)
	}
	if e.view == nil || e.layout() != store.LayoutColumnar || m.Stats().LayoutSwitches != 1 {
		t.Fatalf("after compute-heavy reads: view %v, layout %v, switches %d", e.view, e.layout(), m.Stats().LayoutSwitches)
	}
	if e.Store != payload || e.Store.Layout() != store.LayoutParquet {
		t.Error("attaching the view moved the payload")
	}
	_, own := store.Flatten(payload)
	if got := m.Stats().TotalBytes - before; got != own || e.memoBytes != own {
		t.Errorf("the view is charged %d bytes (memo %d), want the %d it does not share", got, e.memoBytes, own)
	}
	if m.View(e, payload) != e.view {
		t.Error("a flattening scan of the payload does not read the view")
	}
	// Record scans cost no expansion: they never feed the window.
	for i := 0; i < 50; i++ {
		m.RecordScan(e, store.ScanStats{DataNanos: 8000, RowsScanned: int64(e.Store.NumRecords())}, 8000)
	}
	if e.view == nil || m.Stats().LayoutSwitches != 1 {
		t.Errorf("record scans moved the view: %v, switches %d", e.view, m.Stats().LayoutSwitches)
	}
}

// TestFixedLayoutNeverSwitches: LayoutFixedParquet never attaches a view,
// LayoutFixedColumnar attaches one at the first flattening read that
// finds none, and a flat entry never has anything to attach.
func TestFixedLayoutNeverSwitches(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Layout: LayoutFixedParquet})
	ds := nestedDataset("n")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	for i := 0; i < 50; i++ {
		m.RecordScan(e, flattening(e, 100, 100000), 100100)
	}
	if e.view != nil || e.layout() != store.LayoutParquet || m.Stats().LayoutSwitches != 0 {
		t.Errorf("fixed parquet attached a view: %v, switches=%d", e.view, m.Stats().LayoutSwitches)
	}

	m = NewManager(Config{Admission: AlwaysEager, Layout: LayoutFixedColumnar})
	m.BeginQuery()
	e = buildEntry(t, m, ds, nil)
	m.RecordScan(e, flattening(e, 100, 1), 101)
	if e.view == nil || m.Stats().LayoutSwitches != 1 {
		t.Errorf("fixed columnar: view %v after the first flattening read, switches=%d", e.view, m.Stats().LayoutSwitches)
	}
	m.BeginQuery()
	f := buildEntry(t, m, flatDataset("f"), nil)
	m.RecordScan(f, store.ScanStats{DataNanos: 100, RowsScanned: int64(f.Store.NumRecords())}, 100)
	if f.view != nil || f.layout() != store.LayoutColumnar {
		t.Errorf("flat entry: view %v, layout %v", f.view, f.layout())
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

// TestChooseLayoutModes: every payload is the Parquet form, flat or
// nested, in every layout mode.
func TestChooseLayoutModes(t *testing.T) {
	for _, mode := range []LayoutMode{LayoutAuto, LayoutFixedParquet, LayoutFixedColumnar} {
		m := NewManager(Config{Layout: mode})
		for _, ds := range []*plan.Dataset{flatDataset("f"), nestedDataset("n")} {
			if got := m.ChooseLayout(ds); got != store.LayoutParquet {
				t.Errorf("mode %v %s = %v, want parquet", mode, ds.Name, got)
			}
			m.BeginQuery()
			if e := buildEntry(t, m, ds, nil); e.Store.Layout() != store.LayoutParquet {
				t.Errorf("mode %v %s payload = %v", mode, ds.Name, e.Store.Layout())
			}
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

// TestRecordScanReturnsConversionDuration: the flattening read whose
// observation attaches the view returns the derivation's duration, the
// query's LayoutSwitch time, and that duration floors the next window's T.
func TestRecordScanReturnsConversionDuration(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Layout: LayoutAuto})
	ds := nestedDataset("n")
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	var conv time.Duration
	for i := 0; i < 10 && conv == 0; i++ {
		conv = m.RecordScan(e, flattening(e, 1000, 8000), 9000)
	}
	if conv <= 0 || e.view == nil {
		t.Fatalf("derivation duration %v, view %v", conv, e.view)
	}
	if want := (advisorState{lastDerive: conv.Nanoseconds(), viewBytes: e.memoBytes}); e.advisor != want {
		t.Errorf("advisor after the derivation = %+v, want a fresh window floored at %+v", e.advisor, want)
	}
}

// TestViewWaitsForRoom: a view that does not fit in the free room is not
// attached, and the entry does not derive another until the room the
// first one needed is free — a flattening read then pays its expansion
// alone.
func TestViewWaitsForRoom(t *testing.T) {
	ds := nestedDataset("n")
	probe := NewManager(Config{Admission: AlwaysEager})
	probe.BeginQuery()
	size := buildEntry(t, probe, ds, nil).SizeBytes()
	// Room for the view's row index, not for its gathered record leaf.
	m := NewManager(Config{Admission: AlwaysEager, Layout: LayoutFixedColumnar, Capacity: size + 200})
	m.BeginQuery()
	e := buildEntry(t, m, ds, nil)
	if d := m.RecordScan(e, flattening(e, 100, 100), 200); d <= 0 || e.view != nil {
		t.Fatalf("first flattening read: derivation %v, view %v; want a derivation that does not attach", d, e.view)
	}
	for i := 0; i < 5; i++ {
		if d := m.RecordScan(e, flattening(e, 100, 100), 200); d != 0 {
			t.Fatalf("read %d derived a view (%v) into room that cannot hold it", i, d)
		}
	}
	if st := m.Stats(); st.LayoutSwitches != 0 || st.TotalBytes != size {
		t.Errorf("switches %d, %d bytes; want 0 and the payload's %d", st.LayoutSwitches, st.TotalBytes, size)
	}
}
