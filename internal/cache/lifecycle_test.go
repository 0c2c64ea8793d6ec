package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"recache/internal/eviction"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/rtree"
	"recache/internal/store"
	"recache/internal/value"
)

// recordingPolicy is the default policy plus a log of tier moves per id.
type recordingPolicy struct {
	eviction.TieredPolicy
	moves map[uint64]int
}

func newRecordingPolicy() *recordingPolicy {
	return &recordingPolicy{TieredPolicy: eviction.NewGreedyDual(), moves: map[uint64]int{}}
}

func (p *recordingPolicy) OnDemote(id uint64)  { p.moves[id]++; p.TieredPolicy.OnDemote(id) }
func (p *recordingPolicy) OnPromote(id uint64) { p.moves[id]++; p.TieredPolicy.OnPromote(id) }

func assertNothingHeld(t *testing.T, m *Manager, dir string) {
	t.Helper()
	st := m.Stats()
	if st.TotalBytes != 0 || st.DiskBytes != 0 || st.DiskEntries != 0 || st.Entries != 0 {
		t.Errorf("a removed entry is still accounted: TotalBytes=%d DiskBytes=%d DiskEntries=%d Entries=%d",
			st.TotalBytes, st.DiskBytes, st.DiskEntries, st.Entries)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("orphan spill files: %v", files)
	}
}

// An entry invalidated between being queued for spill and the spill write
// finishing must stay removed: no bytes, no file, no policy state.
func TestRemoveDuringSpillStaysRemoved(t *testing.T) {
	dir := t.TempDir()
	pol := newRecordingPolicy()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir, Policy: pol})
	m.BeginQuery()
	e := buildCostly(t, m, flatDataset("t"), nil, costly)
	m.mu.Lock()
	m.queueSpillLocked(e)
	m.mu.Unlock()
	m.invalidateDataset("t")
	m.drainSpills()
	assertNothingHeld(t, m, dir)
	if pol.moves[e.ID] != 0 {
		t.Errorf("policy saw %d tier moves for a removed entry", pol.moves[e.ID])
	}
}

// Same shape for a re-admission: the load of an entry removed meanwhile
// serves the reader that pinned it and nothing else — no promotion, and no
// bytes beyond what the last unpin releases.
func TestRemoveDuringReadmitStaysRemoved(t *testing.T) {
	dir := t.TempDir()
	pol := newRecordingPolicy()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir, Policy: pol})
	ds := flatDataset("t")
	m.BeginQuery()
	e := buildCostly(t, m, ds, nil, costly)
	m.mu.Lock()
	m.queueSpillLocked(e)
	m.mu.Unlock()
	m.drainSpills()
	moves := pol.moves[e.ID]

	tx := m.Begin()
	if _, ok := tx.Rewrite(selOver(ds, nil), map[string][]string{"t": {"a"}}).(*plan.CachedScan); !ok {
		t.Fatal("expected a disk hit")
	}
	m.mu.Lock()
	o, ok := m.begin(e, opLoading)
	path := e.spillPath
	m.mu.Unlock()
	if !ok {
		t.Fatal("load did not begin")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m.invalidateDataset("t")
	// The loader had the file open before the invalidation unlinked it.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := m.load(o, path)
	os.Remove(path)
	st := loaded.store
	if err != nil || st == nil {
		t.Fatalf("the pinned reader lost its payload: %v", err)
	}
	if pol.moves[e.ID] != moves {
		t.Error("a dead entry was promoted")
	}
	if got := m.Stats(); got.TotalBytes != st.SizeBytes() || got.Entries != 0 {
		t.Errorf("while pinned: TotalBytes=%d (want %d) Entries=%d", got.TotalBytes, st.SizeBytes(), got.Entries)
	}
	tx.Close()
	assertNothingHeld(t, m, dir)
}

// An eager entry whose payload is on disk holds no RAM: invalidating it
// must not take phantom bytes out of the gauge, while the views still
// report its spill-file size.
func TestDiskTierEntryHoldsNoRAM(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir})
	m.BeginQuery()
	e := buildCostly(t, m, flatDataset("t"), nil, costly)
	m.mu.Lock()
	m.queueSpillLocked(e)
	m.mu.Unlock()
	m.drainSpills()
	if got := e.SizeBytes(); got != 0 {
		t.Errorf("SizeBytes of a demoted entry = %d, want 0", got)
	}
	st := m.Stats()
	if st.TotalBytes != 0 || st.DiskBytes == 0 {
		t.Fatalf("after demotion: %+v", st)
	}
	if v := m.Snapshot()[0]; !v.OnDisk || v.Bytes != st.DiskBytes {
		t.Errorf("view = %+v, want the %d spill-file bytes", v, st.DiskBytes)
	}
	if want := fmt.Sprintf("disk n=0 %dB", st.DiskBytes); !strings.Contains(e.String(), want) {
		t.Errorf("String() = %q, want it to contain %q", e.String(), want)
	}
	m.invalidateDataset("t")
	assertNothingHeld(t, m, dir)
}

// growingProvider is an in-memory raw file that appends and rewrites:
// record i sits at byte offset 100·i. Like the real providers it serves the
// prefix its last Refresh ingested, however far the file has grown since.
type growingProvider struct {
	mu       sync.Mutex
	schema   *value.Type
	file     []value.Value
	ingested int
	epoch    uint64
}

func (g *growingProvider) snapshot() ([]value.Value, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.file[:g.ingested], g.epoch
}

func (g *growingProvider) grow(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for ; n > 0; n-- {
		i := int64(len(g.file))
		g.file = append(g.file, value.VRecord(value.VInt(i%20), value.VFloat(float64(i)/2)))
	}
}

func (g *growingProvider) rewrite() {
	g.mu.Lock()
	g.file, g.ingested, g.epoch = nil, 0, g.epoch+1
	g.mu.Unlock()
	g.grow(20)
	g.Refresh()
}

func (g *growingProvider) Schema() *value.Type { return g.schema }
func (g *growingProvider) NumRecords() int     { r, _ := g.snapshot(); return len(r) }
func (g *growingProvider) SizeBytes() int64    { return int64(g.NumRecords()) * 100 }
func (g *growingProvider) Version() (uint64, int64) {
	r, ep := g.snapshot()
	return ep, int64(len(r)) * 100
}
func (g *growingProvider) Refresh() (plan.FreshnessReport, error) {
	g.mu.Lock()
	g.ingested = len(g.file)
	g.mu.Unlock()
	ep, covered := g.Version()
	return plan.FreshnessReport{Status: plan.FileAppended, Epoch: ep, Covered: covered}, nil
}
func (g *growingProvider) Scan(needed []value.Path, fn plan.ScanFunc) error {
	return g.ScanFrom(0, needed, fn)
}
func (g *growingProvider) ScanFrom(from int64, _ []value.Path, fn plan.ScanFunc) error {
	recs, _ := g.snapshot()
	for i := int(from / 100); i < len(recs); i++ {
		if err := fn(recs[i], int64(i)*100, func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}
func (g *growingProvider) ScanOffsets(offsets []int64, _ []value.Path, fn plan.ScanFunc) error {
	recs, _ := g.snapshot()
	for _, off := range offsets {
		if err := fn(recs[off/100], off, func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// lifecycleModel drives one manager through random lifecycle steps. Every
// unlocked operation is split into its begin and commit halves, held in
// the pending lists in between, so any other step can land between them.
type lifecycleModel struct {
	t     *testing.T
	rng   *rand.Rand
	m     *Manager
	dir   string
	ds    *plan.Dataset
	prov  *growingProvider
	preds []expr.Expr

	known    map[*Entry]bool // every entry seen, dead ones until nothing can touch them
	txns     []*Txn
	upgrades []inflight
	converts []inflight
	loads    []inflight
	loadPath map[*Entry]string
	extends  []inflight
}

func newLifecycleModel(t *testing.T, seed int64) *lifecycleModel {
	prov := &growingProvider{schema: value.TRecord(value.F("a", value.TInt), value.F("c", value.TFloat)), epoch: 1}
	prov.grow(20)
	prov.Refresh()
	x := &lifecycleModel{
		t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(), prov: prov,
		ds:       &plan.Dataset{Name: "t", Format: plan.FormatCSV, Provider: prov},
		preds:    append(spillPreds(), nil),
		loadPath: map[*Entry]string{},
		known:    map[*Entry]bool{},
	}
	// Budgets of about three entries per tier, so every admission evicts and
	// every spill pressures the disk tier.
	st, _ := x.build(x.preds[0])
	var file bytes.Buffer
	if err := writeParquet(&file, st); err != nil {
		t.Fatal(err)
	}
	x.m = NewManager(Config{
		Admission: AlwaysEager, Layout: LayoutAuto, SpillDir: x.dir,
		Capacity: 3*st.SizeBytes() + st.SizeBytes()/2, DiskCacheBytes: int64(3*file.Len() + file.Len()/2),
	})
	return x
}

// build materializes pred over the provider's current records.
func (x *lifecycleModel) build(pred expr.Expr) (store.Store, []int64) {
	b, err := store.NewBuilder(store.LayoutColumnar, x.ds.Schema())
	if err != nil {
		x.t.Fatal(err)
	}
	p, err := expr.CompilePredicate(pred, x.ds.Schema())
	if err != nil {
		x.t.Fatal(err)
	}
	var offsets []int64
	err = x.prov.Scan(nil, func(rec value.Value, off int64, _ func() error) error {
		if !p(rec.L) {
			return nil
		}
		offsets = append(offsets, off)
		return b.Add(value.VRecord(append([]value.Value(nil), rec.L...)...))
	})
	if err != nil {
		x.t.Fatal(err)
	}
	return b.Finish(), offsets
}

func (x *lifecycleModel) pred() expr.Expr { return x.preds[x.rng.Intn(len(x.preds))] }

func canonOf(pred expr.Expr) string {
	if pred == nil {
		return "true"
	}
	return pred.Canonical()
}

// admit builds and inserts an entry for pred, as a materializer would.
func (x *lifecycleModel) admit(rng *rand.Rand, pred expr.Expr, mode Mode) *Entry {
	ranges, err := expr.ExtractRanges(pred, x.ds.Schema())
	if err != nil {
		x.t.Fatal(err)
	}
	epoch, covered := x.prov.Version()
	spec := &BuildSpec{Manager: x.m, Dataset: x.ds, Pred: pred, PredCanon: canonOf(pred),
		Ranges: ranges, FileEpoch: epoch, Covered: covered}
	st, offsets := x.build(pred)
	if e2, c2 := x.prov.Version(); e2 != epoch || c2 != covered {
		return nil // the file moved under the build: a materializer abandons it
	}
	op := int64(100) // cheap to rebuild: evicted for real
	if rng.Intn(3) > 0 {
		op = costly // worth spilling
	}
	x.m.BeginQuery()
	if mode == Lazy {
		return x.m.CompleteBuild(spec, nil, offsets, Lazy, op, op/2)
	}
	return x.m.CompleteBuild(spec, st, nil, Eager, op, op/2)
}

func (x *lifecycleModel) note(e *Entry) {
	if e != nil {
		x.known[e] = true
	}
}

// pick returns the first live entry, in a seeded random order, that ok
// accepts (nil if none does). ok runs under the manager lock.
func (x *lifecycleModel) pick(ok func(*Entry) bool) *Entry {
	ents := x.m.Entries() // sorted, so the seed fixes the order
	x.rng.Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
	x.m.mu.Lock()
	defer x.m.mu.Unlock()
	for _, e := range ents {
		if ok(e) {
			return e
		}
	}
	return nil
}

// take removes and returns a random element of *list.
func (x *lifecycleModel) take(list *[]inflight) (inflight, bool) {
	l := *list
	if len(l) == 0 {
		return inflight{}, false
	}
	i := x.rng.Intn(len(l))
	o := l[i]
	l[i] = l[len(l)-1]
	*list = l[:len(l)-1]
	return o, true
}

// beginOn reserves a random eligible entry for op.
func (x *lifecycleModel) beginOn(op opKind, list *[]inflight) {
	x.pick(func(e *Entry) bool {
		o, ok := x.m.begin(e, op)
		if ok {
			*list = append(*list, o)
			x.loadPath[e] = e.spillPath
		}
		return ok
	})
}

// heldOn removes and returns an operation this test holds on e.
func (x *lifecycleModel) heldOn(e *Entry) (inflight, bool) {
	for _, l := range []*[]inflight{&x.upgrades, &x.converts, &x.loads, &x.extends} {
		for i, o := range *l {
			if o.e == e {
				*l = append((*l)[:i:i], (*l)[i+1:]...)
				return o, true
			}
		}
	}
	return inflight{}, false
}

// finish runs the unlocked half and the commit of a held operation.
func (x *lifecycleModel) finish(o inflight) {
	switch o.op {
	case opLoading:
		// An unlinked file is a failed load (the entry died meanwhile).
		x.m.load(o, x.loadPath[o.e])
	case opConverting:
		to := store.LayoutParquet
		if o.snap.store.Layout() == store.LayoutParquet {
			to = store.LayoutColumnar
		}
		x.m.convert(o, to)
	case opExtending:
		// Fails when the file was rewritten since the begin: the entry goes.
		x.m.extend(o.e, o.snap, &o)
	case opUpgrading:
		if x.rng.Intn(4) == 0 {
			x.m.CancelUpgrade(o.e)
			return
		}
		b, _ := store.NewBuilder(store.LayoutColumnar, x.ds.Schema())
		recs, _ := x.prov.snapshot()
		for _, off := range o.snap.offsets {
			if i := int(off / 100); i < len(recs) { // the file may have been rewritten shorter
				_ = b.Add(recs[i])
			}
		}
		x.m.UpgradeLazy(o.e, b.Finish(), 500, 700)
	}
}

// read is a reader's access: Resident, and a check that what it returns is
// the predicate over everything the provider has ingested. An entry this
// test holds mid-operation makes Resident wait (when it needs a load or an
// extension), so the read runs beside the rest of that operation.
func (x *lifecycleModel) read(e *Entry) {
	var (
		p    payload
		err  error
		done = make(chan struct{})
	)
	x.m.mu.Lock()
	op := e.op
	x.m.mu.Unlock()
	go func() {
		defer close(done)
		p.mode, p.store, p.offsets, err = x.m.Resident(e)
	}()
	if op == opSpilling {
		x.m.drainSpills()
	} else if op != opIdle {
		// Every operation held on e: all but the live one lost their entry to
		// a free demotion, and their commits are refused.
		for o, ok := x.heldOn(e); ok; o, ok = x.heldOn(e) {
			x.finish(o)
		}
	}
	<-done
	recs, epoch := x.prov.snapshot()
	switch {
	case err != nil:
		// Its spill file went with a removal before this read, or the file
		// was rewritten under a held extension.
		if !e.dead {
			x.t.Fatalf("Resident of live entry %d: %v", e.ID, err)
		}
	case e.FileEpoch == epoch:
		want := 0
		pred, _ := expr.CompilePredicate(e.Pred, x.ds.Schema())
		for _, r := range recs {
			if pred(r.L) {
				want++
			}
		}
		got := len(p.offsets)
		if p.mode == Eager {
			got = p.store.NumRecords()
		}
		if got != want {
			x.t.Fatalf("Resident of entry %d returned %d records, %d match the file", e.ID, got, want)
		}
	}
}

var lifecycleSteps = []struct {
	name   string
	weight int
	run    func(x *lifecycleModel)
}{
	{"admit-eager", 6, func(x *lifecycleModel) { x.note(x.admit(x.rng, x.pred(), Eager)) }},
	{"admit-lazy", 3, func(x *lifecycleModel) { x.note(x.admit(x.rng, x.pred(), Lazy)) }},
	{"admit-replica", 2, func(x *lifecycleModel) {
		pred := x.pred()
		st, _ := x.build(pred)
		var buf bytes.Buffer
		if err := writeParquet(&buf, st); err != nil {
			x.t.Fatal(err)
		}
		if err := x.m.AdmitReplica(x.ds, pred, canonOf(pred), buf.Bytes()); err != nil {
			x.t.Fatal(err)
		}
		x.m.mu.Lock()
		x.note(x.m.byKey[entryKey("t", canonOf(pred))])
		x.m.mu.Unlock()
	}},
	{"pin", 6, func(x *lifecycleModel) {
		tx := x.m.Begin()
		tx.Rewrite(selOver(x.ds, x.pred()), map[string][]string{"t": {"a"}})
		x.txns = append(x.txns, tx)
	}},
	{"unpin", 6, func(x *lifecycleModel) {
		if n := len(x.txns); n > 0 {
			i := x.rng.Intn(n)
			x.txns[i].Close()
			x.txns[i] = x.txns[n-1]
			x.txns = x.txns[:n-1]
		}
	}},
	{"resident", 6, func(x *lifecycleModel) {
		// Any entry: in either tier, current or trailing, idle or mid-operation.
		if e := x.pick(func(*Entry) bool { return true }); e != nil {
			x.read(e)
		}
	}},
	{"record-scan", 3, func(x *lifecycleModel) {
		if e := x.pick(func(e *Entry) bool { return e.Store != nil }); e != nil {
			n := int64(e.Store.NumFlatRows())
			x.m.RecordScan(e, store.ScanStats{DataNanos: 1000, ComputeNanos: int64(x.rng.Intn(9000)), RowsScanned: n}, 1+x.rng.Intn(2), 6000)
		}
	}},
	{"spill-begin", 4, func(x *lifecycleModel) {
		x.pick(x.m.queueSpillLocked)
	}},
	{"spill-commit", 4, func(x *lifecycleModel) { x.m.drainSpills() }},
	{"free-demote", 2, func(x *lifecycleModel) {
		x.pick(func(e *Entry) bool {
			ok := e.keptSpillFile() && e.reclaimable() // what evictLocked requires
			if ok {
				x.m.demoteLocked(e)
			}
			return ok
		})
	}},
	{"load-begin", 4, func(x *lifecycleModel) { x.beginOn(opLoading, &x.loads) }},
	{"load-commit", 4, func(x *lifecycleModel) {
		if o, ok := x.take(&x.loads); ok {
			x.finish(o)
		}
	}},
	{"upgrade-begin", 3, func(x *lifecycleModel) {
		if e := x.pick(func(e *Entry) bool { return e.Mode == Lazy }); e != nil && x.m.TryStartUpgrade(e) {
			_, _, off := x.m.Payload(e)
			x.upgrades = append(x.upgrades, inflight{e: e, op: opUpgrading, snap: payload{offsets: off}})
		}
	}},
	{"upgrade-commit", 3, func(x *lifecycleModel) {
		if o, ok := x.take(&x.upgrades); ok {
			x.finish(o)
		}
	}},
	{"convert-begin", 3, func(x *lifecycleModel) { x.beginOn(opConverting, &x.converts) }},
	{"convert-commit", 3, func(x *lifecycleModel) {
		if o, ok := x.take(&x.converts); ok {
			x.finish(o)
		}
	}},
	{"append", 3, func(x *lifecycleModel) {
		// What Revalidate does after an append: the provider moves, and every
		// entry of the dataset is left trailing until something reads it.
		x.prov.grow(1 + x.rng.Intn(3))
		x.prov.Refresh()
	}},
	{"extend-begin", 3, func(x *lifecycleModel) {
		// The two halves of Resident's catch-up, so other steps land between.
		x.pick(func(e *Entry) bool {
			if trailing, extendable := e.lag(e.payload()); !trailing || !extendable {
				return false
			}
			o, ok := x.m.begin(e, opExtending)
			if ok {
				x.extends = append(x.extends, o)
			}
			return ok
		})
	}},
	{"extend-commit", 3, func(x *lifecycleModel) {
		if o, ok := x.take(&x.extends); ok {
			x.finish(o)
		}
	}},
	{"rewrite", 1, func(x *lifecycleModel) {
		if x.prov.NumRecords() > 60 || x.rng.Intn(4) == 0 {
			x.prov.rewrite()
			x.m.invalidateDataset("t")
		}
	}},
}

// check asserts the lifecycle invariants; quiescent adds the end-of-run ones.
func (x *lifecycleModel) check(step int, name string, quiescent bool) {
	m := x.m
	m.mu.Lock()
	defer m.mu.Unlock()
	fail := func(format string, args ...any) {
		x.t.Helper()
		x.t.Fatalf("step %d (%s): %s", step, name, fmt.Sprintf(format, args...))
	}
	pinned := map[*Entry]int{}
	for _, tx := range x.txns {
		for _, e := range tx.pinned {
			pinned[e]++
		}
	}
	held := map[*Entry]bool{}
	for _, l := range [][]inflight{x.upgrades, x.converts, x.loads, x.extends, m.pendingSpills} {
		for _, o := range l {
			held[o.e] = true
		}
	}
	recs, epoch := x.prov.snapshot()
	var ram, disk int64
	files := map[string]bool{}
	live := 0
	for e := range x.known {
		if e.pins != pinned[e] {
			fail("entry %d: pins=%d, open txns pin it %d times", e.ID, e.pins, pinned[e])
		}
		if e.op != opIdle && (!held[e] || quiescent) {
			fail("entry %d: op=%d with no operation pending", e.ID, e.op)
		}
		if e.opDone != nil {
			fail("entry %d: op=%d left a gate nobody waits on", e.ID, e.op)
		}
		if !e.dead || e.pins > 0 {
			ram += e.SizeBytes()
		}
		if e.spillPath != "" {
			disk += e.spillBytes
			files[filepath.Base(e.spillPath)] = true
			if fi, err := os.Stat(e.spillPath); err != nil || fi.Size() != e.spillBytes {
				fail("entry %d: spill file %v, want %d bytes", e.ID, err, e.spillBytes)
			}
		}
		// One tier: a RAM-tier entry holds its payload, a disk-tier entry its
		// file, and a disk-tier entry keeps a RAM copy only for pinned readers.
		switch {
		case e.Mode == Lazy && (e.tier != tierRAM || e.spillPath != "" || e.Store != nil):
			fail("lazy entry %d in the disk tier", e.ID)
		case e.Mode == Eager && e.tier == tierRAM && e.Store == nil:
			fail("entry %d: RAM tier without a store", e.ID)
		case e.tier == tierDisk && !e.dead && e.spillPath == "":
			fail("entry %d: disk tier without a file", e.ID)
		case e.tier == tierDisk && !e.dead && e.Store != nil && e.pins == 0:
			fail("entry %d: unpinned disk-tier entry kept its RAM copy", e.ID)
		}
		reachable := m.entries[e.ID] == e || m.byKey[e.Key()] == e || m.uncon["t"][e.ID] == e
		for col, iv := range e.Ranges.Cols {
			if tree := m.indexes["t|"+col]; tree != nil {
				for _, id := range tree.Containing(rtree.Interval1D(iv.Lo, iv.Hi)) {
					reachable = reachable || id == e.ID
				}
			}
		}
		if e.dead {
			if reachable || e.spillPath != "" {
				fail("dead entry %d is reachable (file %q)", e.ID, e.spillPath)
			}
			if e.pins == 0 && !held[e] {
				delete(x.known, e) // nothing will touch it again
			}
			continue
		}
		live++
		if m.entries[e.ID] != e || m.byKey[e.Key()] != e {
			fail("live entry %d is not in the lookup tables", e.ID)
		}
		// The payload is the predicate over exactly the covered prefix.
		if e.FileEpoch == epoch {
			want := 0
			p, _ := expr.CompilePredicate(e.Pred, x.ds.Schema())
			for _, r := range recs[:e.CoveredBytes/100] {
				if p(r.L) {
					want++
				}
			}
			if got := len(e.Offsets); e.Mode == Lazy && got != want {
				fail("lazy entry %d holds %d offsets, %d records match", e.ID, got, want)
			}
			if e.Store != nil && e.Store.NumRecords() != want {
				fail("entry %d holds %d records, %d match", e.ID, e.Store.NumRecords(), want)
			}
		}
	}
	if m.total != ram {
		fail("m.total=%d, entries hold %d", m.total, ram)
	}
	if m.diskTotal != disk || m.diskEntries != len(files) {
		fail("disk gauges %d bytes / %d files, entries own %d / %d", m.diskTotal, m.diskEntries, disk, len(files))
	}
	if len(m.entries) != live {
		fail("%d entries in the table, %d live", len(m.entries), live)
	}
	des, err := os.ReadDir(x.dir)
	if err != nil {
		fail("%v", err)
	}
	for _, de := range des {
		if !files[de.Name()] {
			fail("orphan file %s in the spill dir", de.Name())
		}
	}
	if len(des) != len(files) {
		fail("%d files in the spill dir, entries own %d", len(des), len(files))
	}
	if n := m.stats.openTxns.Load(); quiescent && n != 0 {
		fail("OpenTxns=%d at quiescence", n)
	}
}

func runLifecycleModel(t *testing.T, seed int64, steps int) {
	x := newLifecycleModel(t, seed)
	total := 0
	for _, s := range lifecycleSteps {
		total += s.weight
	}
	for i := 0; i < steps; i++ {
		n := x.rng.Intn(total)
		for _, s := range lifecycleSteps {
			if n -= s.weight; n < 0 {
				s.run(x)
				x.check(i, s.name, false)
				break
			}
		}
	}
	// Quiesce: finish every held operation, close every query.
	for len(x.upgrades)+len(x.converts)+len(x.loads)+len(x.extends)+len(x.txns) > 0 {
		for _, s := range lifecycleSteps {
			if strings.HasSuffix(s.name, "-commit") || s.name == "unpin" {
				s.run(x)
			}
		}
	}
	x.check(steps, "quiesce", true)
}

// pinnedLifecycleSeeds replay fixed schedules. The first two once failed:
// both unpin the last reader of a demoted entry's RAM copy while an
// extension of that copy is held open, so the drop has to end the operation,
// nothing else will. The third is a schedule a past run drew fresh.
var pinnedLifecycleSeeds = []int64{1, 1790466152564101585, 1792040738882089520}

// TestLifecycleModel checks the lifecycle invariants after every one of
// 10k random steps of each pinned schedule and of a fresh one (its seed is
// logged; add it to pinnedLifecycleSeeds to replay).
func TestLifecycleModel(t *testing.T) {
	for _, seed := range pinnedLifecycleSeeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runLifecycleModel(t, seed, 10_000) })
	}
	t.Run("seed=fresh", func(t *testing.T) {
		seed := time.Now().UnixNano()
		t.Logf("seed=%d", seed)
		runLifecycleModel(t, seed, 10_000)
	})
}

// TestLifecycleConcurrent runs the same kinds of steps through the public
// entry points from many goroutines (for -race), then checks the
// invariants once everything has drained.
func TestLifecycleConcurrent(t *testing.T) {
	x := newLifecycleModel(t, 1)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards x.known
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				pred := x.preds[rng.Intn(len(x.preds))]
				switch rng.Intn(8) {
				case 0:
					x.prov.grow(1)
					if _, err := x.m.Revalidate(x.ds); err != nil {
						t.Error(err)
					}
				case 1:
					if rng.Intn(8) == 0 {
						x.m.invalidateDataset("t")
					}
				case 2, 3:
					mode := Eager
					if rng.Intn(3) == 0 {
						mode = Lazy
					}
					e := x.admit(rng, pred, mode)
					mu.Lock()
					x.note(e)
					mu.Unlock()
				default:
					tx := x.m.Begin()
					if cs, ok := tx.Rewrite(selOver(x.ds, pred), map[string][]string{"t": {"a"}}).(*plan.CachedScan); ok {
						e := cs.Entry.(*Entry)
						mode, st, off, err := x.m.Resident(e)
						switch {
						case err != nil:
							// Dropped on its way to the payload: the query would fail over to raw.
						case mode == Lazy && x.m.TryStartUpgrade(e):
							if rng.Intn(2) == 0 {
								x.m.CancelUpgrade(e)
							} else {
								b, _ := store.NewBuilder(store.LayoutColumnar, x.ds.Schema())
								_ = x.prov.ScanOffsets(off, nil, func(rec value.Value, _ int64, _ func() error) error {
									return b.Add(rec)
								})
								x.m.UpgradeLazy(e, b.Finish(), 500, 700)
							}
						case st != nil:
							x.m.RecordScan(e, store.ScanStats{DataNanos: 1000, ComputeNanos: int64(rng.Intn(9000)),
								RowsScanned: int64(st.NumFlatRows())}, 1, 6000)
						}
					}
					tx.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	x.check(0, "concurrent", true)
}
