package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
// Parquet form — the payload of an eager admission.
func selectStore(t *testing.T, m *Manager, ds *plan.Dataset, pred expr.Expr) store.Store {
	t.Helper()
	b, err := store.NewBuilder(store.LayoutParquet, ds.Schema())
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

func TestSpillOnEvictionAndReadOnHit(t *testing.T) {
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

	// The hit reads the leaf it scans from the file into a store of its own:
	// the entry stays on disk, RAM is charged nothing, the file stays.
	total := m.Stats().TotalBytes
	mode, est, _, err := m.Resident(e, store.Leaves{Cols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if mode != Eager || est == nil {
		t.Fatalf("Resident returned mode=%v store=%v", mode, est)
	}
	if est.NumRecords() != 4 {
		t.Errorf("the disk hit read %d records, want 4", est.NumRecords())
	}
	if _, err := est.BatchCursor(false, []int{1}); err == nil {
		t.Error("a cursor over a leaf the hit did not read opened")
	}
	if tier := m.EntryTier(e); tier != "disk" {
		t.Errorf("tier after a disk hit = %q", tier)
	}
	if got := m.Stats(); got.TotalBytes != total || got.DiskEntries != st.DiskEntries || got.Spills != st.Spills {
		t.Errorf("a disk hit moved the cache: %+v -> %+v", st, got)
	}
	if _, err := os.Stat(m.spillFile(e.ID)); err != nil {
		t.Error("a disk hit lost the spill file")
	}
	tx.Close()
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
	st, deferred, disk := e.Store, e.dropOnUnpin(), e.onDisk()
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
	// And the next reader reads it from disk.
	if _, rst, _, err := m.Resident(e, store.AllLeaves(ds.Schema())); err != nil || rst == nil {
		t.Fatalf("disk hit failed: %v", err)
	}
}

// TestConcurrentDiskHitsReadPrivately: concurrent hits on one spilled
// entry each read the file into a store of their own, and none of them
// moves the entry out of the disk tier or charges RAM.
func TestConcurrentDiskHitsReadPrivately(t *testing.T) {
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
			_, st, _, err := m.Resident(e, store.Leaves{Cols: []int{i % 2}})
			if err != nil {
				t.Error(err)
				return
			}
			stores[i] = st
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if stores[i] == nil || stores[i].NumRecords() != 20 {
			t.Fatalf("reader %d read %v", i, stores[i])
		}
		for j := 0; j < i; j++ {
			if stores[i] == stores[j] {
				t.Fatalf("readers %d and %d share a store", j, i)
			}
		}
	}
	st := m.Stats()
	if st.DiskEntries != 1 || st.DiskBytes == 0 || st.TotalBytes != 0 || m.EntryTier(e) != "disk" {
		t.Errorf("disk hits moved the entry: %+v", st)
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
	if _, _, _, err := m.Resident(e, store.AllLeaves(ds.Schema())); err == nil {
		t.Fatal("Resident on a corrupt spill file should error")
	}
	st := m.Stats()
	if st.SpillDrops == 0 {
		t.Error("a failed read must count as a spill drop")
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
// readers pin and scan entries in both tiers; run under -race this
// exercises the disk-hit and pin interleavings.
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
					_, st, _, err := m.Resident(e, store.Leaves{Cols: []int{0}, Lengths: true})
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

// TestSpillWriteAllocs: a demotion writes the entry's payload as it is,
// each vector's memory image straight to the file. One spill write of a
// 3.25 MB eager flat entry, built in the layout the manager builds payloads
// in, allocates a fixed budget — the file, a small write buffer and
// per-column framing — where a payload-sized write buffer, or a copy of the
// payload on its way to the file, would allocate a large part of it.
func TestSpillWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const n = 200_000
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: t.TempDir()})
	ds := flatDataset("t")
	cols := []*store.Vec{store.NewVec(value.Int), store.NewVec(value.Float)}
	sel := make([]int32, n)
	for i := range sel {
		cols[0].AppendVal(value.VInt(int64(i)))
		cols[1].AppendVal(value.VFloat(float64(i) / 2))
		sel[i] = int32(i)
	}
	b, err := store.NewBuilder(m.ChooseLayout(ds), ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch(cols, sel); err != nil {
		t.Fatal(err)
	}
	spec := &BuildSpec{Manager: m, Dataset: ds, PredCanon: "true", Ranges: &expr.RangeSet{}}
	e := m.CompleteBuild(spec, b.Finish(), nil, Eager, 1e12, 1e12)
	size := e.SizeBytes()
	m.mu.Lock()
	queued := m.queueSpillLocked(e)
	m.mu.Unlock()
	if !queued {
		t.Fatal("the entry was not queued for a spill")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.drainSpills()
	runtime.ReadMemStats(&after)
	if m.Stats().Spills != 1 {
		t.Fatalf("spills = %d, want 1", m.Stats().Spills)
	}
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("one spill write of a %d-byte entry allocated %d bytes", size, alloc)
	const budget = 64 << 10
	if alloc > budget {
		t.Errorf("one spill write of a %d-byte entry allocated %d bytes, want at most %d", size, alloc, budget)
	}
}

// spillNow demotes e to the disk tier.
func spillNow(t *testing.T, m *Manager, e *Entry) {
	t.Helper()
	m.mu.Lock()
	queued := m.queueSpillLocked(e)
	m.mu.Unlock()
	m.drainSpills()
	if !queued || m.EntryTier(e) != "disk" {
		t.Fatalf("entry %d did not demote", e.ID)
	}
}

// TestDiskHitViewsMapping: a disk hit's vectors are views of its entry's
// spill-file mapping, made once at the spill: the mapping holds the file's
// bytes, every vector lies inside it, and two hits read the same memory.
// The entry is charged nothing for it.
func TestDiskHitViewsMapping(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: t.TempDir()})
	ds := flatDataset("t")
	e := buildCostly(t, m, ds, nil, costly)
	spillNow(t, m, e)
	tx := m.Begin()
	defer tx.Close()
	if _, ok := tx.Rewrite(selOver(ds, nil), map[string][]string{"t": {"a", "c"}}).(*plan.CachedScan); !ok {
		t.Fatal("expected a disk hit")
	}
	leaves := store.Leaves{Cols: []int{0, 1}}
	var cols [2][]*store.Vec
	for i := range cols {
		_, st, _, err := m.Resident(e, leaves)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := st.BatchCursor(false, leaves.Cols)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = cur.Cols
	}
	m.mu.Lock()
	spill, path, size := e.spillMap, e.spillPath, e.SizeBytes()
	m.mu.Unlock()
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(spill, file) {
		t.Fatalf("the mapping does not hold the spill file's bytes (%v)", err)
	}
	lo := uintptr(unsafe.Pointer(&spill[0]))
	inside := func(p unsafe.Pointer, n int) bool {
		return uintptr(p) >= lo && uintptr(p)+uintptr(8*n) <= lo+uintptr(len(spill))
	}
	ints, floats := cols[0][0].Ints, cols[0][1].Floats
	if !inside(unsafe.Pointer(&ints[0]), len(ints)) || !inside(unsafe.Pointer(&floats[0]), len(floats)) {
		t.Fatal("the disk hit's vectors are not views of the entry's mapping")
	}
	if &cols[1][0].Ints[0] != &ints[0] || &cols[1][1].Floats[0] != &floats[0] {
		t.Error("two disk hits read different memory")
	}
	if size != 0 || m.Stats().TotalBytes != 0 {
		t.Errorf("the disk hit charged the entry %d bytes, RAM %d", size, m.Stats().TotalBytes)
	}
}

// TestCloseReleasesMappings: every spill file is mapped once, at its spill
// or its replica's admission, and unmapped where it is unlinked — at the
// last unpin of a removed entry — or at Close, which leaves no mapping
// behind. A rejected replica leaves neither a file nor a mapping.
func TestCloseReleasesMappings(t *testing.T) {
	base := store.Mappings()
	mapped := func(want int64, when string) {
		t.Helper()
		if got := store.Mappings() - base; got != want {
			t.Fatalf("%s: %d live mappings, want %d", when, got, want)
		}
	}
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir})
	ds := flatDataset("t")
	preds := spillPreds()
	var disk []*Entry
	for _, pred := range preds[:3] {
		e := buildCostly(t, m, ds, pred, costly)
		spillNow(t, m, e)
		disk = append(disk, e)
	}
	var buf bytes.Buffer
	if err := store.WriteParquet(&buf, selectStore(t, m, ds, preds[3])); err != nil {
		t.Fatal(err)
	}
	if err := m.AdmitReplica(ds, preds[3], preds[3].Canonical(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := m.AdmitReplica(ds, preds[4], preds[4].Canonical(), buf.Bytes()[:buf.Len()-8]); err == nil {
		t.Fatal("a truncated replica was admitted")
	}
	mapped(4, "three spills and a replica")
	if files, _ := os.ReadDir(dir); len(files) != 4 {
		t.Errorf("%d files in the spill dir, want 4", len(files))
	}

	tx := m.Begin()
	if cs, ok := tx.Rewrite(selOver(ds, preds[0]), map[string][]string{"t": {"a"}}).(*plan.CachedScan); !ok || cs.Entry != disk[0] {
		t.Fatal("expected a disk hit on the first spilled entry")
	}
	m.mu.Lock()
	m.removeLocked(disk[0])
	m.mu.Unlock()
	mapped(4, "a removed entry still pinned")
	tx.Close()
	mapped(3, "its last unpin")

	m.Close()
	mapped(0, "Close")
	if _, _, _, err := m.Resident(disk[1], store.Leaves{Cols: []int{0}}); err == nil {
		t.Error("a disk hit after Close succeeded")
	}
	m.Close()
	mapped(0, "a second Close")
}

// TestExportHandsOverSpillFile: ExportPayloads hands a disk-tier entry's
// mapped spill file to fn unchanged, with the entry pinned until the export
// returns, and serializes a RAM entry; both decode to the entry's records.
// An error from fn aborts the export, which releases every pin.
func TestExportHandsOverSpillFile(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: t.TempDir()})
	ds := flatDataset("t")
	preds := spillPreds()
	disk := buildCostly(t, m, ds, preds[0], costly)
	spillNow(t, m, disk)
	buildCostly(t, m, ds, preds[1], costly)
	seen := 0
	err := m.ExportPayloads(func(_, canon string, payload []byte) error {
		m.mu.Lock()
		e := m.byKey[entryKey("t", canon)]
		pins, spill := e.pins, e.spillMap
		m.mu.Unlock()
		switch {
		case e == disk && (len(payload) != len(spill) || &payload[0] != &spill[0]):
			t.Error("a disk-tier entry's payload is not its mapped spill file")
		case e == disk && pins != 1:
			t.Errorf("the disk-tier entry holds %d pins while fn reads its file, want 1", pins)
		case e != disk && pins != 0:
			t.Errorf("a RAM entry was pinned %d times", pins)
		}
		st, err := store.ReadParquetBytes(payload, ds.Schema())
		if err != nil || st.NumRecords() != 4 {
			t.Errorf("%s: exported payload decodes to %v, %v; want 4 records", canon, st, err)
		}
		seen++
		return nil
	})
	if err != nil || seen != 2 {
		t.Fatalf("exported %d entries (%v), want 2", seen, err)
	}
	if err := m.ExportPayloads(func(string, string, []byte) error { return errCancelled }); err != errCancelled {
		t.Errorf("an aborted export returned %v", err)
	}
	if disk.pins != 0 {
		t.Errorf("the export left %d pins on the disk-tier entry", disk.pins)
	}
}

// BenchmarkSpillReload times one disk hit on a lineitem-shaped payload of
// about 800 KB (11 000 rows of nine numeric columns): Manager.Resident of a
// pinned entry decoding the header and the sections a scan needs as views
// of the spill file's mapping — all nine leaves (full), or two (projected,
// a GROUP BY's key and value). MB/s is the bytes of the vectors viewed.
func BenchmarkSpillReload(b *testing.B) {
	const n = 11_000
	schema := value.TRecord(
		value.F("l_orderkey", value.TInt), value.F("l_partkey", value.TInt),
		value.F("l_suppkey", value.TInt), value.F("l_linenumber", value.TInt),
		value.F("l_quantity", value.TInt), value.F("l_extendedprice", value.TFloat),
		value.F("l_discount", value.TFloat), value.F("l_tax", value.TFloat),
		value.F("l_shipdate", value.TInt),
	)
	ds := &plan.Dataset{Name: "lineitem", Format: plan.FormatCSV, Provider: &fakeProvider{schema: schema}}
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: b.TempDir()})
	cols := make([]*store.Vec, len(schema.Fields))
	for ci, f := range schema.Fields {
		cols[ci] = store.NewVec(f.Type.Kind)
	}
	sel := make([]int32, n)
	for i := range sel {
		for ci, v := range cols {
			if v.Kind == value.Float {
				v.AppendVal(value.VFloat(float64(i*ci) / 7))
			} else {
				v.AppendVal(value.VInt(int64(i * (ci + 1))))
			}
		}
		sel[i] = int32(i)
	}
	bld, err := store.NewBuilder(store.LayoutParquet, schema)
	if err != nil {
		b.Fatal(err)
	}
	if err := bld.AppendBatch(cols, sel); err != nil {
		b.Fatal(err)
	}
	spec := &BuildSpec{Manager: m, Dataset: ds, PredCanon: "true", Ranges: &expr.RangeSet{}}
	e := m.CompleteBuild(spec, bld.Finish(), nil, Eager, 1e12, 1e12)
	m.mu.Lock()
	queued := m.queueSpillLocked(e)
	m.mu.Unlock()
	if !queued {
		b.Fatal("the entry was not queued for a spill")
	}
	m.drainSpills()
	tx := m.Begin() // a query's pin, as every disk hit holds
	defer tx.Close()
	if _, ok := tx.Rewrite(&plan.Select{Child: &plan.Scan{DS: ds}}, map[string][]string{"lineitem": {"l_quantity"}}).(*plan.CachedScan); !ok {
		b.Fatal("expected a disk hit")
	}
	for _, c := range []struct {
		name   string
		leaves store.Leaves
	}{
		{"full", store.AllLeaves(schema)},
		{"projected", store.Leaves{Cols: []int{4, 5}}}, // l_quantity, l_extendedprice
	} {
		b.Run(c.name, func(b *testing.B) {
			_, st, _, err := m.Resident(e, c.leaves)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.SizeBytes())
			b.ReportAllocs()
			for b.Loop() {
				if _, st, _, err := m.Resident(e, c.leaves); err != nil || st == nil {
					b.Fatalf("disk hit failed: %v", err)
				}
			}
		})
	}
}
