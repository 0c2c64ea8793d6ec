package cache

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// buildCostly is buildEntry with a caller-chosen reconstruction cost, so
// tests control whether eviction finds spilling worthwhile (the demotion
// gate compares t+c against the estimated reload cost).
func buildCostly(t *testing.T, m *Manager, ds *plan.Dataset, pred expr.Expr, opNanos int64) *Entry {
	t.Helper()
	canon := "true"
	if pred != nil {
		canon = pred.Canonical()
	}
	ranges, err := expr.ExtractRanges(pred, ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	spec := &BuildSpec{Manager: m, Dataset: ds, Pred: pred, PredCanon: canon, Ranges: ranges}
	e := m.CompleteBuild(spec, selectStore(t, m, ds, pred), nil, Eager, opNanos, opNanos/2)
	if e == nil {
		t.Fatal("CompleteBuild returned nil")
	}
	return e
}

// selectStore materializes the records of ds that satisfy pred in the
// layout the manager would choose — the payload of an eager admission.
func selectStore(t *testing.T, m *Manager, ds *plan.Dataset, pred expr.Expr) store.Store {
	t.Helper()
	b, err := store.NewBuilder(m.ChooseLayout(ds), ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p, err := expr.CompilePredicate(pred, ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	err = ds.Provider.Scan(nil, func(rec value.Value, off int64, _ func() error) error {
		if !p(rec.L) {
			return nil
		}
		cp := value.Value{Kind: value.Record, L: append([]value.Value(nil), rec.L...)}
		return b.Add(cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Finish()
}

// costly is an OpNanos far above any reload estimate, so evicting such an
// entry always prefers demotion to disk over discarding it.
const costly = 50_000_000

func spillPreds() []expr.Expr {
	var preds []expr.Expr
	for lo := int64(0); lo < 20; lo += 4 {
		preds = append(preds, expr.Between(expr.C("a"), expr.L(lo), expr.L(lo+3)))
	}
	return preds
}

func diskEntryOf(m *Manager) *Entry {
	for _, e := range m.Entries() {
		if m.EntryTier(e) == "disk" {
			return e
		}
	}
	return nil
}

func TestSpillOnEvictionAndReadmitOnHit(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 250, SpillDir: dir})
	ds := flatDataset("t")
	for _, p := range spillPreds() {
		m.BeginQuery()
		buildCostly(t, m, ds, p, costly)
	}
	st := m.Stats()
	if st.Spills == 0 || st.DiskEntries == 0 || st.DiskBytes == 0 {
		t.Fatalf("expected demotions to disk, got %+v", st)
	}
	if st.Evictions == 0 {
		t.Error("demotions must still count as evictions")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "spill-*.rcp"))
	if len(files) != st.DiskEntries {
		t.Errorf("spill files = %d, disk entries = %d", len(files), st.DiskEntries)
	}

	e := diskEntryOf(m)
	if e == nil {
		t.Fatal("no disk-tier entry found")
	}
	// A lookup must still match the spilled entry — and count a disk hit.
	tx := m.Begin()
	sel := &plan.Select{Pred: e.Pred, Child: &plan.Scan{DS: ds}}
	out := tx.Rewrite(sel, map[string][]string{"t": {"a"}})
	if _, ok := out.(*plan.CachedScan); !ok {
		t.Fatalf("spilled entry no longer matches: rewrite = %T", out)
	}
	if got := m.Stats().DiskHits; got != 1 {
		t.Errorf("disk hits = %d, want 1", got)
	}

	// Re-admission: one spill-file read brings the payload back to RAM.
	mode, est, _, err := m.Resident(e)
	if err != nil {
		t.Fatal(err)
	}
	if mode != Eager || est == nil {
		t.Fatalf("Resident returned mode=%v store=%v", mode, est)
	}
	if est.NumRecords() != 4 {
		t.Errorf("re-admitted store has %d records, want 4", est.NumRecords())
	}
	if tier := m.EntryTier(e); tier != "ram" {
		t.Errorf("tier after re-admission = %q", tier)
	}
	if _, err := os.Stat(m.spillFile(e.ID)); err != nil {
		t.Error("spill file should be retained after re-admission (payloads are immutable; the next demotion is free)")
	}
	tx.Close()
}

// TestKeptSpillFileMakesRedemotionFree: after a re-admission the spill file
// is still valid, so the entry's next demotion drops the RAM payload with
// no second serialization or write.
func TestKeptSpillFileMakesRedemotionFree(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 250, SpillDir: dir})
	ds := flatDataset("t")
	for _, p := range spillPreds() {
		m.BeginQuery()
		buildCostly(t, m, ds, p, costly)
	}
	e := diskEntryOf(m)
	if e == nil {
		t.Fatal("no disk-tier entry")
	}
	if _, _, _, err := m.Resident(e); err != nil {
		t.Fatal(err)
	}
	writes := m.Stats().Spills
	// Re-admission pushed RAM over budget again; some victim was demoted.
	// Force specifically e back out and check no new file write happened.
	m.mu.Lock()
	if e.Store != nil {
		m.demoteLocked(e)
	}
	m.mu.Unlock()
	if m.EntryTier(e) != "disk" {
		t.Fatal("entry did not demote")
	}
	if got := m.Stats().Spills; got != writes {
		t.Errorf("re-demotion wrote a spill file: %d -> %d writes", writes, got)
	}
	if _, st, _, err := m.Resident(e); err != nil || st == nil {
		t.Fatalf("re-admission after free demotion failed: %v", err)
	}
}

// TestDiskBudgetReclaimsRedundantCopiesFirst: under disk pressure the tier
// drops kept files of resident entries (which lose nothing) before evicting
// disk-only entries for real.
func TestDiskBudgetReclaimsRedundantCopiesFirst(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 250, SpillDir: dir})
	ds := flatDataset("t")
	for _, p := range spillPreds() {
		m.BeginQuery()
		buildCostly(t, m, ds, p, costly)
	}
	e := diskEntryOf(m)
	if e == nil {
		t.Fatal("no disk-tier entry")
	}
	if _, _, _, err := m.Resident(e); err != nil { // resident + kept file
		t.Fatal(err)
	}
	before := m.Stats()
	m.mu.Lock()
	m.cfg.DiskCacheBytes = m.diskTotal - 1 // force ~one file over budget
	m.evictDiskLocked()
	m.mu.Unlock()
	after := m.Stats()
	if after.Entries != before.Entries {
		t.Errorf("reclaiming a redundant copy dropped an entry: %d -> %d", before.Entries, after.Entries)
	}
	if after.DiskEntries >= before.DiskEntries {
		t.Errorf("no file reclaimed: %d -> %d", before.DiskEntries, after.DiskEntries)
	}
	m.mu.Lock()
	lost := e.spillPath == "" && e.Store != nil
	m.mu.Unlock()
	if !lost {
		t.Error("the resident entry's redundant file should be the reclaim victim")
	}
}

func TestCheapEntriesEvictForReal(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 250, SpillDir: dir})
	ds := flatDataset("t")
	for _, p := range spillPreds() {
		m.BeginQuery()
		// Reconstruction costs less than any reload estimate: demotion would
		// waste disk budget, so eviction discards.
		buildCostly(t, m, ds, p, 100)
	}
	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if st.Spills != 0 || st.DiskEntries != 0 {
		t.Errorf("cheap entries must not spill: %+v", st)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "spill-*")); len(files) != 0 {
		t.Errorf("unexpected spill files: %v", files)
	}
}

func TestDiskBudgetEnforced(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 250, SpillDir: dir,
		DiskCacheBytes: 1})
	ds := flatDataset("t")
	for _, p := range spillPreds() {
		m.BeginQuery()
		buildCostly(t, m, ds, p, costly)
	}
	st := m.Stats()
	if st.Spills == 0 {
		t.Fatal("expected spills")
	}
	if st.SpillDrops == 0 {
		t.Error("a 1-byte disk budget must drop spilled entries")
	}
	if st.DiskBytes > 1 {
		t.Errorf("disk bytes %d over budget", st.DiskBytes)
	}
}

func TestPinnedEntryNeverLosesStoreMidScan(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir})
	ds := flatDataset("t")
	m.BeginQuery()
	e := buildCostly(t, m, ds, nil, costly)

	// Pin the entry as a query scanning it would.
	tx := m.Begin()
	sel := &plan.Select{Pred: nil, Child: &plan.Scan{DS: ds}}
	if _, ok := tx.Rewrite(sel, map[string][]string{"t": {"a"}}).(*plan.CachedScan); !ok {
		t.Fatal("expected a cache hit")
	}

	// Demote it while pinned (as a concurrent eviction round would).
	m.mu.Lock()
	m.queueSpillLocked(e)
	m.mu.Unlock()
	m.drainSpills()

	m.mu.Lock()
	st, deferred, disk := e.Store, e.dropOnUnpin(), e.tier == tierDisk
	m.mu.Unlock()
	if st == nil {
		t.Fatal("pinned entry lost its store mid-scan")
	}
	if !deferred || !disk {
		t.Fatalf("spill should finalize with a deferred drop: dropOnUnpin=%v onDisk=%v", deferred, disk)
	}
	// The last unpin performs the deferred payload drop.
	tx.Close()
	m.mu.Lock()
	st = e.Store
	m.mu.Unlock()
	if st != nil {
		t.Fatal("payload should drop at the last unpin")
	}
	if tier := m.EntryTier(e); tier != "disk" {
		t.Errorf("tier = %q, want disk", tier)
	}
	// And the entry comes back.
	if _, rst, _, err := m.Resident(e); err != nil || rst == nil {
		t.Fatalf("re-admission failed: %v", err)
	}
}

func TestReadmissionIsSingleFlight(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir})
	ds := flatDataset("t")
	m.BeginQuery()
	e := buildCostly(t, m, ds, nil, costly)
	m.mu.Lock()
	m.queueSpillLocked(e)
	m.mu.Unlock()
	m.drainSpills()
	if m.EntryTier(e) != "disk" {
		t.Fatal("entry did not spill")
	}

	const readers = 8
	stores := make([]store.Store, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, st, _, err := m.Resident(e)
			if err != nil {
				t.Error(err)
				return
			}
			stores[i] = st
		}(i)
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if stores[i] != stores[0] {
			t.Fatal("concurrent re-admissions produced different stores (loaded more than once)")
		}
	}
	st := m.Stats()
	if st.DiskEntries != 1 || st.DiskBytes == 0 {
		t.Errorf("kept spill file must stay in the disk accounting: %+v", st)
	}
	if st.Spills != 1 {
		t.Errorf("spills = %d, want 1", st.Spills)
	}
}

func TestUnreadableSpillFileDropsEntry(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir})
	ds := flatDataset("t")
	m.BeginQuery()
	e := buildCostly(t, m, ds, nil, costly)
	m.mu.Lock()
	m.queueSpillLocked(e)
	m.mu.Unlock()
	m.drainSpills()

	// Corrupt the spill file behind the manager's back (simulated disk
	// failure; atomic writes make this impossible in normal operation).
	if err := os.WriteFile(m.spillFile(e.ID), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Resident(e); err == nil {
		t.Fatal("Resident on a corrupt spill file should error")
	}
	st := m.Stats()
	if st.SpillDrops == 0 {
		t.Error("a failed reload must count as a spill drop")
	}
	if st.Entries != 0 || st.DiskEntries != 0 {
		t.Errorf("dropped entry still accounted: %+v", st)
	}
	// The next lookup must miss and rebuild.
	tx := m.Begin()
	defer tx.Close()
	sel := &plan.Select{Pred: nil, Child: &plan.Scan{DS: ds}}
	if _, ok := tx.Rewrite(sel, map[string][]string{"t": {"a"}}).(*plan.CachedScan); ok {
		t.Error("dropped entry still matches lookups")
	}
}

func TestInitSpillDirRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	orphans := []string{"spill-99.rcp", "spill-7.rcp.123.tmp"}
	for _, n := range orphans {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "unrelated.txt")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	NewManager(Config{SpillDir: dir})
	for _, n := range orphans {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Errorf("orphan %s not cleaned", n)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Error("cleanup must not touch unrelated files")
	}
}

func TestUnusableSpillDirDegradesToRAMOnly(t *testing.T) {
	f := filepath.Join(t.TempDir(), "a-file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A file where the directory should be: MkdirAll fails, spilling is off.
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 250, SpillDir: filepath.Join(f, "sub")})
	ds := flatDataset("t")
	for _, p := range spillPreds() {
		m.BeginQuery()
		buildCostly(t, m, ds, p, costly)
	}
	st := m.Stats()
	if st.Spills != 0 {
		t.Errorf("unusable spill dir must disable spilling: %+v", st)
	}
	if st.Evictions == 0 {
		t.Error("expected plain evictions")
	}
}

// TestSpillConcurrentChurn hammers one small cache from many goroutines so
// entries ping-pong between RAM and disk while readers pin and scan them;
// run under -race this exercises the spill/re-admit/pin interleavings.
func TestSpillConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 250, SpillDir: dir})
	ds := flatDataset("t")
	preds := spillPreds()
	for _, p := range preds {
		m.BeginQuery()
		buildCostly(t, m, ds, p, costly)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				p := preds[(g+i)%len(preds)]
				tx := m.Begin()
				sel := &plan.Select{Pred: p, Child: &plan.Scan{DS: ds}}
				out := tx.Rewrite(sel, map[string][]string{"t": {"a"}})
				if cs, ok := out.(*plan.CachedScan); ok {
					e := cs.Entry.(*Entry)
					_, st, _, err := m.Resident(e)
					if err != nil {
						t.Error(err)
					} else if st != nil {
						n := 0
						if cur, err := st.BatchCursor(true, []int{0}); err != nil {
							t.Error(err)
						} else {
							buf := make([]int32, store.BatchRows)
							for sel := cur.Next(buf); sel != nil; sel = cur.Next(buf) {
								n += len(sel)
							}
						}
						if n != 4 {
							t.Errorf("scan saw %d rows, want 4", n)
						}
					}
				}
				tx.Close()
			}
		}(g)
	}
	wg.Wait()
	// Every live spill file must belong to a live disk entry.
	st := m.Stats()
	files, _ := filepath.Glob(filepath.Join(dir, "spill-*.rcp"))
	if len(files) != st.DiskEntries {
		t.Errorf("spill files = %d, disk entries = %d (%v)", len(files), st.DiskEntries, files)
	}
	for _, f := range files {
		if !strings.HasPrefix(filepath.Base(f), "spill-") {
			t.Errorf("unexpected file %s", f)
		}
	}
}
