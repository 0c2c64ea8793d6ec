package cache

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recache/internal/eviction"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/rtree"
	"recache/internal/store"
	"recache/internal/value"
)

// AdmissionMode selects the admission behaviour of materializers.
type AdmissionMode uint8

// Admission modes. The paper's baselines (Fig. 12, 13) are AlwaysEager and
// AlwaysLazy; ReCache itself uses Adaptive; Off disables caching entirely.
const (
	Adaptive AdmissionMode = iota
	AlwaysEager
	AlwaysLazy
	Off
)

// LayoutMode selects when a nested entry keeps the flattened view of its
// Parquet payload (advisor.go).
type LayoutMode uint8

// Layout modes. Auto is ReCache's reactive selection; the fixed modes are
// the static baselines of the figures: Parquet never keeps a view, and
// columnar keeps one from the first flattening read on.
const (
	LayoutAuto LayoutMode = iota
	LayoutFixedParquet
	LayoutFixedColumnar
)

// Config configures a cache manager. The zero value means: unlimited
// capacity, Greedy-Dual eviction, adaptive admission with the paper's 10%
// threshold and 1000-record samples, automatic view selection, and
// subsumption matching enabled.
type Config struct {
	// Capacity is the cache size limit in bytes; 0 means unlimited.
	Capacity int64
	// Policy is the eviction policy (default: ReCache Greedy-Dual).
	// Policies need no internal locking: the manager invokes every Policy
	// method under its own lock (see internal/eviction).
	Policy eviction.Policy
	// Admission selects the materializer behaviour.
	Admission AdmissionMode
	// Threshold is the admission overhead threshold T (default 0.10).
	Threshold float64
	// SampleSize is the admission sampling window in records (default 1000).
	SampleSize int
	// Layout selects automatic vs fixed flattened views.
	Layout LayoutMode
	// LinearSubsumption replaces the R-tree candidate lookup with a linear
	// scan over all entries (the naive approach §3.3 rejects; ablation).
	LinearSubsumption bool
	// SpillDir enables the disk spill tier: eviction victims whose
	// reconstruction cost exceeds their reload cost are written (the RCS
	// image of their Parquet form) into this directory instead of
	// discarded, and stay there: a hit on one reads the leaves its scan
	// needs from the file. Empty disables spilling. The directory must be
	// private to this manager: init removes any orphaned spill files in it.
	SpillDir string
	// DiskCacheBytes is the disk tier's byte budget; 0 means unlimited.
	// When exceeded, the (tiered) eviction policy discards spilled entries
	// for real, priced by reload-cost per byte.
	DiskCacheBytes int64
	// Oracle supplies the logical time of the next query that would hit an
	// entry (offline eviction policies only). nil ⇒ NextUse unknown.
	Oracle func(e *Entry, now int64) int64
	// Fleet makes this manager one shard of a fleet (see Fleet); nil is a
	// solo engine.
	Fleet Fleet
}

// Fleet is what a manager needs from the shard fleet it is a member of.
// Both methods are called outside the manager lock.
type Fleet interface {
	// Materialize extends single-flight materialization across the fleet:
	// after a miss reserves its local build slot, the manager asks for a
	// fleet-wide materialization lease on (dataset, predCanon). ok=false
	// means another process is already building the entry — the miss
	// executes raw without admitting, exactly like a local single-flight
	// denial. On ok=true a non-nil release is called when the query's Txn
	// closes. It is a network call.
	Materialize(dataset, predCanon string) (release func(), ok bool)
	// Replicate is handed every eager admission's immutable store so the
	// key's replica shard receives the payload (see AdmitReplica) — but
	// only when this manager has a disk tier: replicas land in the
	// receiver's spill dir, and a fleet is configured alike, so a member
	// without one would only queue pushes its peers reject. It runs on the
	// admitting query's goroutine, so it must hand off and return — not
	// serialize or dial inline.
	Replicate(dataset, predCanon string, st store.Store)
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = eviction.NewGreedyDual()
	}
	if c.Threshold == 0 {
		c.Threshold = 0.10
	}
	if c.SampleSize == 0 {
		c.SampleSize = 1000
	}
	return c
}

// Stats aggregates manager-level counters for reporting. It is a plain
// snapshot: Manager.Stats assembles it from the live atomic counters. The
// json tags are the key names of the daemon's /stats blob (the wire stats
// op, printed by `recached -stats`).
type Stats struct {
	Queries        int64 `json:"queries"`
	ExactHits      int64 `json:"exact_hits"`
	SubsumedHits   int64 `json:"subsumed_hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	LayoutSwitches int64 `json:"layout_switches"` // flattened views attached (§4.2)
	LazyUpgrades   int64 `json:"lazy_upgrades"`
	Inserted       int64 `json:"inserted"`
	// VectorizedScans counts cache scans (every one runs on batches);
	// VectorizedBatches the column batches those scans pulled.
	VectorizedScans   int64 `json:"vectorized_scans"`
	VectorizedBatches int64 `json:"vectorized_batches"`
	// VectorizedJoins counts joins run to completion (typed build, batch
	// probe, gathered output); JoinProbeBatches the probe-side batches
	// those joins consumed.
	VectorizedJoins  int64 `json:"vectorized_joins"`
	JoinProbeBatches int64 `json:"join_probe_batches"`
	// PushdownScans counts raw scans that evaluated pushed conjuncts below
	// parsing; PushedConjuncts totals the conjuncts those scans pushed, and
	// RecordsSkippedEarly the records they rejected before decoding
	// anything beyond the tested columns.
	PushdownScans       int64 `json:"pushdown_scans"`
	PushedConjuncts     int64 `json:"pushed_conjuncts"`
	RecordsSkippedEarly int64 `json:"records_skipped_early"`
	// Disk-tier counters: Spills counts RAM→disk demotions, DiskHits the
	// lookups answered by a spilled entry (each reads the leaves it scans
	// from the file), and SpillDrops the entries the disk tier discarded
	// for real (disk eviction plus unreadable/failed spill files).
	// DiskEntries/DiskBytes gauge what the spill directory currently holds.
	DiskHits    int64 `json:"disk_hits"`
	Spills      int64 `json:"spills"`
	SpillDrops  int64 `json:"spill_drops"`
	DiskEntries int   `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
	// Freshness counters: StaleInvalidations counts entries dropped because
	// their raw file was rewritten (or truncated) under them, or grew past a
	// payload that cannot extend, or past twice what a spill file covers;
	// TailExtensions counts payloads a reader extended over an appended
	// tail — committed to a RAM entry, or its own read of a spill file or
	// of a copy its entry no longer holds; and TailBytesScanned
	// totals the appended bytes revalidations ingested — the work saved
	// versus a full rebuild is the file size minus this.
	StaleInvalidations int64 `json:"stale_invalidations"`
	TailExtensions     int64 `json:"tail_extensions"`
	TailBytesScanned   int64 `json:"tail_bytes_scanned"`
	// ReplicaAdmits counts entries this cache admitted into its disk tier
	// from a peer's replication push (OpReplicate) rather than a local build.
	ReplicaAdmits int64 `json:"replica_admits"`

	TotalBytes int64 `json:"total_bytes"`
	Entries    int   `json:"entries"`

	// OpenTxns gauges query transactions begun but not yet closed. Every
	// entry pin lives inside a Txn, so OpenTxns == 0 implies no entry is
	// pinned by a query — the invariant a drained server asserts.
	OpenTxns int64 `json:"open_txns"`
}

// counters holds the manager's live statistics. Counters are atomics so hot
// paths (query admission, hit classification) can bump them without
// serializing on the manager lock, and so Stats() can take a consistent-ish
// snapshot while queries are in flight.
type counters struct {
	queries             atomic.Int64
	exactHits           atomic.Int64
	subsumedHits        atomic.Int64
	misses              atomic.Int64
	evictions           atomic.Int64
	layoutSwitches      atomic.Int64
	lazyUpgrades        atomic.Int64
	inserted            atomic.Int64
	vectorizedScans     atomic.Int64
	vectorizedBatches   atomic.Int64
	vectorizedJoins     atomic.Int64
	joinProbeBatches    atomic.Int64
	pushdownScans       atomic.Int64
	pushedConjuncts     atomic.Int64
	recordsSkippedEarly atomic.Int64
	diskHits            atomic.Int64
	spills              atomic.Int64
	spillDrops          atomic.Int64
	staleInvalidations  atomic.Int64
	tailExtensions      atomic.Int64
	tailBytesScanned    atomic.Int64
	replicaAdmits       atomic.Int64
	openTxns            atomic.Int64 // gauge: Begin +1, first Txn.Close -1
}

// Manager owns the cache: entries, the exact-match table, the per-(dataset,
// column) R-tree subsumption indexes, and the eviction policy state.
//
// A Manager is safe for concurrent use by many queries. The concurrency
// design has three pieces:
//
//   - One mutex (mu) guards all lookup structures, entry mutation, and the
//     eviction policy; it is held only for short bookkeeping sections, never
//     across a raw-file scan, a cache scan, or a view derivation.
//   - Statistics counters and the logical query clock are atomics.
//   - Per-query state (pinned entries, reserved single-flight build slots)
//     lives in a Txn handed out by Begin; Txn.Close releases everything, so
//     a query that errors mid-execution cannot leak pins or build slots.
type Manager struct {
	mu      sync.Mutex
	cfg     Config
	policy  eviction.TieredPolicy // cfg.Policy, adapted if it has no disk-tier state
	nextID  uint64
	entries map[uint64]*Entry
	byKey   map[string]*Entry
	// Subsumption indexes: one 1-D R-tree per (dataset, numeric column).
	indexes map[string]*rtree.Tree
	// Entries with no range constraints and no residuals (full-table and
	// residual-free caches) per dataset: they can subsume anything.
	uncon map[string]map[uint64]*Entry
	// building is the single-flight table: entry key → id of the Txn whose
	// materializer is building that entry. While a key is present, other
	// queries missing on it scan raw instead of duplicating the build.
	building map[string]uint64

	// total is the RAM bytes held, guarded by mu and moved only by the
	// transitions in lifecycle.go. It includes dead entries still pinned by
	// readers, RAM copies demoted entries keep for theirs, and entries
	// whose spill write is in flight: bytes are released only when the
	// payload actually drops.
	total int64

	// Disk-tier accounting, guarded by mu (lifecycle.go).
	diskTotal   int64 // bytes held in spill files
	diskEntries int
	// pendingSpills queues eviction victims selected for demotion; spill
	// writes run outside the lock (drainSpills), mirroring how view
	// derivations are kept off the lock.
	pendingSpills []inflight

	clock  atomic.Int64  // logical time: one tick per query
	nextTx atomic.Uint64 // Txn id generator
	stats  counters
}

// NewManager creates a manager. If the configuration enables the spill
// tier, the spill directory is created and any orphaned spill files from a
// previous process are removed (spilled state is not durable across
// restarts: the metadata lives in RAM).
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		entries:  make(map[uint64]*Entry),
		byKey:    make(map[string]*Entry),
		indexes:  make(map[string]*rtree.Tree),
		uncon:    make(map[string]map[uint64]*Entry),
		building: make(map[string]uint64),
	}
	var ok bool
	if m.policy, ok = m.cfg.Policy.(eviction.TieredPolicy); !ok {
		m.policy = untiered{m.cfg.Policy}
	}
	m.initSpillDir()
	return m
}

// Config returns the active configuration (with defaults applied).
func (m *Manager) Config() Config { return m.cfg }

// BeginQuery advances the logical clock; one tick per query. Callers that
// need pin tracking and single-flight deduplication use Begin instead.
func (m *Manager) BeginQuery() {
	m.clock.Add(1)
	m.stats.queries.Add(1)
}

// Clock returns the logical time (queries seen).
func (m *Manager) Clock() int64 {
	return m.clock.Load()
}

// NoteVectorizedJoin records one fully vectorized hash join that consumed
// probeBatches probe-side batches. The executor calls it when a join's
// build and probe sides both served batches; the probe-side entry's scan
// observation (RecordScan) separately carries the measured probe nanos
// into the layout advisor.
func (m *Manager) NoteVectorizedJoin(probeBatches int64) {
	m.stats.vectorizedJoins.Add(1)
	m.stats.joinProbeBatches.Add(probeBatches)
}

// NotePushdown records one raw scan that evaluated n pushed conjuncts below
// parsing, skipping skipped records before full decode. The executor calls
// it after such a scan, so pushdown activity shows up next to the reuse
// counters in Stats.
func (m *Manager) NotePushdown(n int, skipped int64) {
	m.stats.pushdownScans.Add(1)
	m.stats.pushedConjuncts.Add(int64(n))
	m.stats.recordsSkippedEarly.Add(skipped)
}

// Stats returns a snapshot of manager counters. The outcome counters are
// loaded before Queries: a query increments Queries at Begin and classifies
// later, so this order keeps ExactHits+SubsumedHits+Misses <= Queries in
// any mid-flight snapshot (equality once the workload quiesces).
func (m *Manager) Stats() Stats {
	s := Stats{
		ExactHits:           m.stats.exactHits.Load(),
		SubsumedHits:        m.stats.subsumedHits.Load(),
		Misses:              m.stats.misses.Load(),
		Evictions:           m.stats.evictions.Load(),
		LayoutSwitches:      m.stats.layoutSwitches.Load(),
		LazyUpgrades:        m.stats.lazyUpgrades.Load(),
		Inserted:            m.stats.inserted.Load(),
		VectorizedScans:     m.stats.vectorizedScans.Load(),
		VectorizedBatches:   m.stats.vectorizedBatches.Load(),
		VectorizedJoins:     m.stats.vectorizedJoins.Load(),
		JoinProbeBatches:    m.stats.joinProbeBatches.Load(),
		PushdownScans:       m.stats.pushdownScans.Load(),
		PushedConjuncts:     m.stats.pushedConjuncts.Load(),
		RecordsSkippedEarly: m.stats.recordsSkippedEarly.Load(),
		DiskHits:            m.stats.diskHits.Load(),
		Spills:              m.stats.spills.Load(),
		SpillDrops:          m.stats.spillDrops.Load(),
		StaleInvalidations:  m.stats.staleInvalidations.Load(),
		TailExtensions:      m.stats.tailExtensions.Load(),
		TailBytesScanned:    m.stats.tailBytesScanned.Load(),
		ReplicaAdmits:       m.stats.replicaAdmits.Load(),
		OpenTxns:            m.stats.openTxns.Load(),
	}
	s.Queries = m.stats.queries.Load()
	m.mu.Lock()
	s.TotalBytes = m.total
	s.Entries = len(m.entries)
	s.DiskBytes = m.diskTotal
	s.DiskEntries = m.diskEntries
	m.mu.Unlock()
	return s
}

// Entries returns a snapshot of all live entries (sorted by ID, for
// deterministic output). The *Entry values are shared with the manager:
// single-threaded tooling and tests may read their fields directly, but
// concurrent callers must use Payload / Snapshot instead.
func (m *Manager) Entries() []*Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Entry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// EntryView is a plain-data snapshot of one live entry, copied under the
// manager lock so it is safe to read while queries run.
type EntryView struct {
	ID        uint64
	Dataset   string
	PredCanon string
	Mode      Mode
	Layout    store.Layout // what a flattening scan reads (Entry.layout); meaningful when HasStore
	HasStore  bool
	OnDisk    bool  // payload spilled to the disk tier
	Bytes     int64 // RAM footprint; spill-file bytes when OnDisk
	Reuses    int64
	// JoinTables counts the join hash tables memoised on the entry's store
	// (their bytes are in Bytes).
	JoinTables int
}

// Snapshot returns race-free views of all live entries, sorted by ID.
func (m *Manager) Snapshot() []EntryView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EntryView, 0, len(m.entries))
	for _, e := range m.entries {
		v := EntryView{
			ID:         e.ID,
			Dataset:    e.Dataset.Name,
			PredCanon:  e.PredCanon,
			Mode:       e.Mode,
			HasStore:   e.Store != nil,
			OnDisk:     e.diskOnly(),
			Bytes:      e.footprint(),
			Reuses:     e.Reuses,
			JoinTables: len(e.joins),
		}
		if e.Store != nil {
			v.Layout = e.layout()
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Payload returns a consistent view of the entry's mode and payload for a
// reader. The returned store / offsets slice stay valid even if the entry
// is concurrently upgraded, extended, or evicted: stores are immutable
// once built, and deferred removal keeps pinned entries alive.
func (m *Manager) Payload(e *Entry) (Mode, store.Store, []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return e.Mode, e.Store, e.Offsets
}

// Txn tracks one query's interaction with the cache: the entries it pinned
// (hits being scanned) and the single-flight build slots it reserved
// (misses being materialized). Close releases both; it must always run,
// even when the query fails.
type Txn struct {
	m      *Manager
	id     uint64
	pinned []*Entry
	slots  []string
	// remote holds fleet-lease releases acquired through Fleet.Materialize;
	// Close runs them outside the manager lock (they are network calls).
	remote []func()
	closed bool
}

// Begin starts a query: it advances the logical clock and returns the Txn
// that tracks the query's pins and build reservations.
func (m *Manager) Begin() *Txn {
	m.BeginQuery()
	m.stats.openTxns.Add(1)
	return &Txn{m: m, id: m.nextTx.Add(1)}
}

// Rewrite is Manager.Rewrite with pin tracking and single-flight
// deduplication: cache hits are pinned until Close, and at most one
// in-flight query builds a given (dataset, predicate) entry — concurrent
// identical misses scan raw instead.
func (t *Txn) Rewrite(root plan.Node, needed map[string][]string) plan.Node {
	return t.m.rewriteRoot(root, needed, t, false)
}

// Close unpins every entry this query pinned and releases any build slots
// its materializers did not complete. Idempotent.
func (t *Txn) Close() {
	if t.closed {
		return
	}
	t.closed = true
	m := t.m
	m.stats.openTxns.Add(-1)
	m.mu.Lock()
	for _, key := range t.slots {
		if m.building[key] == t.id {
			delete(m.building, key)
		}
	}
	for _, e := range t.pinned {
		m.unpinLocked(e)
	}
	t.pinned, t.slots = nil, nil
	m.mu.Unlock()
	// Fleet-lease releases are network calls; they must not run under mu.
	for _, rel := range t.remote {
		rel()
	}
	t.remote = nil
}

// BuildSpec instructs a materializer (internal/exec) how to admit one
// select operator's output.
type BuildSpec struct {
	Manager    *Manager
	Dataset    *plan.Dataset
	Pred       expr.Expr
	PredCanon  string
	Ranges     *expr.RangeSet
	Admission  AdmissionMode
	Threshold  float64
	SampleSize int
	// WorkingSet is true when live cache entries from the same file exist:
	// §5.2 then skips sampling and caches eagerly.
	WorkingSet bool
	// SlotKey / SlotTx identify the single-flight build slot this spec
	// reserved (SlotTx == 0: none). CompleteBuild releases the slot.
	SlotKey string
	SlotTx  uint64
	// FileEpoch / Covered record the provider file version the materializer
	// built against (captured via plan.RefreshableProvider.Version before the
	// scan and re-verified after). Zero epoch: provider without freshness
	// tracking — the entry then never extends, only invalidates wholesale.
	FileEpoch uint64
	Covered   int64
}

// Rewrite walks a plan bottom-up, replacing cacheable subtrees
// ([Unnest?]→Select→Scan) with CachedScan nodes on hits and wrapping the
// remaining cacheable selects in Materialize nodes on misses. needed maps
// dataset name → the dotted leaf columns the query actually uses (the
// projection pushed into cache scans).
//
// Rewrite performs no pin tracking or single-flight deduplication; it is
// the single-caller path kept for tests and tooling. Concurrent queries go
// through Begin / Txn.Rewrite / Txn.Close.
func (m *Manager) Rewrite(root plan.Node, needed map[string][]string) plan.Node {
	return m.rewriteRoot(root, needed, nil, false)
}

// Peek is a side-effect-free Rewrite: it shows what Rewrite would do (the
// same CachedScan / Materialize tree shapes) without touching reuse
// counters, eviction-policy state, statistics, pins, or build slots.
// EXPLAIN uses it so that explaining a query never perturbs the cache.
func (m *Manager) Peek(root plan.Node, needed map[string][]string) plan.Node {
	return m.rewriteRoot(root, needed, nil, true)
}

func (m *Manager) rewriteRoot(root plan.Node, needed map[string][]string, tx *Txn, readOnly bool) plan.Node {
	if m.cfg.Admission == Off {
		return root
	}
	return m.rewrite(root, needed, tx, readOnly)
}

// rewrite is copy-on-write: the plan it is handed may be a cached template
// that concurrent queries share, so a node whose child changes is copied,
// never written to, and a subtree with nothing to replace is returned as is.
func (m *Manager) rewrite(n plan.Node, needed map[string][]string, tx *Txn, readOnly bool) plan.Node {
	switch x := n.(type) {
	case *plan.Unnest:
		var c plan.Node
		if sel, ok := x.Child.(*plan.Select); ok {
			if scan, ok2 := sel.Child.(*plan.Scan); ok2 {
				if repl := m.lookupAndRewrite(scan.DS, sel.Pred, true, needed[scan.DS.Name], tx, readOnly); repl != nil {
					return repl
				}
				// Miss: materialize the select, keep the unnest above it.
				c = m.wrapMaterialize(sel, scan.DS, tx, readOnly)
			}
		}
		if c == nil {
			c = m.rewrite(x.Child, needed, tx, readOnly)
		}
		if c == x.Child {
			return x
		}
		cp := *x
		cp.Child = c
		return &cp
	case *plan.Select:
		if scan, ok := x.Child.(*plan.Scan); ok {
			if repl := m.lookupAndRewrite(scan.DS, x.Pred, false, needed[scan.DS.Name], tx, readOnly); repl != nil {
				return repl
			}
			return m.wrapMaterialize(x, scan.DS, tx, readOnly)
		}
		c := m.rewrite(x.Child, needed, tx, readOnly)
		if c == x.Child {
			return x
		}
		cp := *x
		cp.Child = c
		return &cp
	case *plan.Project:
		c := m.rewrite(x.Child, needed, tx, readOnly)
		if c == x.Child {
			return x
		}
		cp := *x
		cp.Child = c
		return &cp
	case *plan.Aggregate:
		c := m.rewrite(x.Child, needed, tx, readOnly)
		if c == x.Child {
			return x
		}
		cp := *x
		cp.Child = c
		return &cp
	case *plan.Join:
		l, r := m.rewrite(x.Left, needed, tx, readOnly), m.rewrite(x.Right, needed, tx, readOnly)
		if l == x.Left && r == x.Right {
			return x
		}
		cp := *x
		cp.Left, cp.Right = l, r
		return &cp
	default:
		return n
	}
}

// wrapMaterialize attaches a BuildSpec to a missed select. With a Txn it
// first consults the single-flight table: if another in-flight query is
// already building the same entry, the select executes raw (still counted
// as a miss) rather than duplicating the build.
func (m *Manager) wrapMaterialize(sel *plan.Select, ds *plan.Dataset, tx *Txn, readOnly bool) plan.Node {
	if readOnly {
		// Peek: show what Query would do without reserving or counting —
		// untypeable predicates execute raw (mirroring the path below).
		if _, err := expr.ExtractRanges(sel.Pred, ds.Schema()); err != nil {
			return sel
		}
		return &plan.Materialize{Child: sel}
	}
	canon := "true"
	if sel.Pred != nil {
		canon = sel.Pred.Canonical()
	}
	// Every cache-eligible select that was not a hit counts as a miss —
	// including untypeable predicates and single-flight raw fallbacks below
	// — so that ExactHits + SubsumedHits + Misses always equals the number
	// of rewritten selects. (Before the concurrency refactor, untypeable
	// predicates were left uncounted.)
	m.stats.misses.Add(1)
	ranges, err := expr.ExtractRanges(sel.Pred, ds.Schema())
	if err != nil {
		return sel // untypeable predicate: execute without caching
	}
	key := entryKey(ds.Name, canon)
	m.mu.Lock()
	if tx != nil {
		if owner, busy := m.building[key]; busy && owner != tx.id {
			// Single-flight: another query is already materializing this
			// exact entry. Scan raw; by the next miss the entry will exist.
			m.mu.Unlock()
			return sel
		}
		m.building[key] = tx.id
		tx.slots = append(tx.slots, key)
	}
	// Working-set fast path (§5.2): only a live *eager* entry from the same
	// file justifies skipping the sampler — it proves eager caching of this
	// file was affordable and the file is still hot.
	ws := false
	for _, e := range m.entries {
		if e.Dataset == ds && e.Mode == Eager {
			ws = true
			break
		}
	}
	m.mu.Unlock()
	if tx != nil && m.cfg.Fleet != nil {
		// Fleet-wide single-flight: ask the key's owning shard for a
		// materialization lease (a network call, so outside mu). Denial
		// means another process is already building this entry — take the
		// same raw-execution path as a local single-flight denial, after
		// handing back the local slot just reserved.
		release, ok := m.cfg.Fleet.Materialize(ds.Name, canon)
		if !ok {
			m.mu.Lock()
			if m.building[key] == tx.id {
				delete(m.building, key)
			}
			m.mu.Unlock()
			return sel
		}
		if release != nil {
			tx.remote = append(tx.remote, release)
		}
	}
	spec := &BuildSpec{
		Manager:    m,
		Dataset:    ds,
		Pred:       sel.Pred,
		PredCanon:  canon,
		Ranges:     ranges,
		Admission:  m.cfg.Admission,
		Threshold:  m.cfg.Threshold,
		SampleSize: m.cfg.SampleSize,
		WorkingSet: ws,
		SlotKey:    key,
	}
	if tx != nil {
		spec.SlotTx = tx.id
	}
	return &plan.Materialize{Child: sel, Spec: spec}
}

// ChooseLayout returns the layout of every entry's payload, whatever the
// dataset and the layout mode: the Parquet form (§4.2: cheaper to build,
// smaller). A flattened view is a memo the advisor attaches beside it.
func (m *Manager) ChooseLayout(*plan.Dataset) store.Layout { return store.LayoutParquet }

// lookupAndRewrite searches for an exact or subsuming entry. On a hit it
// returns the replacement CachedScan (with lookup time l charged to the
// entry); on a miss it returns nil. With a Txn the hit entry is pinned
// until Txn.Close; in readOnly mode no counter, policy, or pin state moves.
func (m *Manager) lookupAndRewrite(ds *plan.Dataset, pred expr.Expr, flat bool, neededCols []string, tx *Txn, readOnly bool) plan.Node {
	start := time.Now()
	canon := "true"
	if pred != nil {
		canon = pred.Canonical()
	}
	// Compute the output schema before touching any counters so that a
	// schema failure degrades to a plain miss instead of a half-counted hit.
	out, err := cachedScanSchema(ds, flat, neededCols)
	if err != nil {
		return nil
	}
	m.mu.Lock()
	e, exact := m.lookupLocked(ds, pred, canon, readOnly)
	if e == nil {
		m.mu.Unlock()
		return nil
	}
	disk, mode := e.diskOnly(), e.Mode
	trailing, _ := e.lag(e.payload())
	if !readOnly {
		l := time.Since(start).Nanoseconds()
		e.LookupNs = l
		e.Reuses++
		e.Freq++
		e.LastAccess = m.clock.Load()
		m.policy.OnAccess(e.ID)
		if tx != nil {
			e.pins++
			tx.pinned = append(tx.pinned, e)
		}
		if exact {
			m.stats.exactHits.Add(1)
		} else {
			m.stats.subsumedHits.Add(1)
		}
		if disk {
			m.stats.diskHits.Add(1)
		}
	}
	m.mu.Unlock()
	var residual expr.Expr
	label := "exact"
	if !exact {
		residual = pred
		label = "subsumed"
	}
	if mode == Lazy {
		label += "+lazy"
	}
	if disk {
		label += "+disk"
	}
	if trailing {
		label += "+trailing" // the scan first extends the entry over the file's new tail
	}
	return &plan.CachedScan{
		Entry:    e,
		DS:       ds,
		Flat:     flat,
		Residual: residual,
		Out:      out,
		Label:    label,
	}
}

// lookupLocked implements the match: exact key first, then R-tree
// subsumption candidates verified against the full range set. Only entries
// that are current with the raw file, or can catch up with it, match
// (servableLocked).
func (m *Manager) lookupLocked(ds *plan.Dataset, pred expr.Expr, canon string, readOnly bool) (*Entry, bool) {
	if e, ok := m.byKey[entryKey(ds.Name, canon)]; ok && m.servableLocked(e, readOnly) {
		return e, true
	}
	qr, err := expr.ExtractRanges(pred, ds.Schema())
	if err != nil {
		return nil, false
	}
	var cands []*Entry
	if m.cfg.LinearSubsumption {
		// Naive approach: consider every cached item (linear in the cache
		// size; kept for the ablation benchmark).
		for _, e := range m.entries {
			if e.Dataset == ds {
				cands = append(cands, e)
			}
		}
	} else {
		// Unconstrained (full-table) caches subsume everything on the
		// dataset.
		for _, e := range m.uncon[ds.Name] {
			cands = append(cands, e)
		}
		// One ranged column is enough to generate candidates; the full
		// verification below filters false positives.
		for col, iv := range qr.Cols {
			tree := m.indexes[ds.Name+"|"+col]
			if tree == nil {
				continue
			}
			for _, id := range tree.Containing(rtree.Interval1D(iv.Lo, iv.Hi)) {
				if e, ok := m.entries[id]; ok {
					cands = append(cands, e)
				}
			}
			break
		}
	}
	var best *Entry
	for _, e := range cands {
		if !e.Ranges.Covers(qr) || !m.servableLocked(e, readOnly) {
			continue
		}
		if best == nil || betterCandidate(e, best) {
			best = e
		}
	}
	return best, false
}

// betterCandidate prefers eager entries, then RAM-resident payloads over
// spilled ones (a disk hit costs a Parquet read), then fewer rows to scan.
func betterCandidate(a, b *Entry) bool {
	if (a.Mode == Eager) != (b.Mode == Eager) {
		return a.Mode == Eager
	}
	if a.diskOnly() != b.diskOnly() {
		return b.diskOnly()
	}
	return a.footprint() < b.footprint()
}

// cachedScanSchema computes the output row schema of a cache scan: the
// needed columns restricted to the right granularity.
func cachedScanSchema(ds *plan.Dataset, flat bool, neededCols []string) (*value.Type, error) {
	cols, err := value.LeafColumnsCached(ds.Schema())
	if err != nil {
		return nil, err
	}
	nm := map[string]value.LeafColumn{}
	for _, c := range cols {
		nm[c.Name()] = c
	}
	var fields []value.Field
	if neededCols == nil {
		for _, c := range cols {
			if !flat && c.Repeated {
				continue
			}
			fields = append(fields, value.Field{Name: c.Name(), Type: c.Type, Optional: true})
		}
	} else {
		for _, n := range neededCols {
			c, ok := nm[n]
			if !ok {
				continue
			}
			if !flat && c.Repeated {
				continue
			}
			fields = append(fields, value.Field{Name: c.Name(), Type: c.Type, Optional: true})
		}
	}
	return value.TRecord(fields...), nil
}

// CompleteBuild registers a finished cache entry (called by a materializer
// when its query finishes). opNanos and cacheNanos are the measured t and c.
// It returns the entry (nil if an identical entry raced in first), and
// releases the single-flight build slot the spec reserved.
func (m *Manager) CompleteBuild(spec *BuildSpec, st store.Store, offsets []int64,
	mode Mode, opNanos, cacheNanos int64) *Entry {

	m.mu.Lock()
	if spec.SlotTx != 0 && m.building[spec.SlotKey] == spec.SlotTx {
		delete(m.building, spec.SlotKey)
	}
	key := entryKey(spec.Dataset.Name, spec.PredCanon)
	if _, dup := m.byKey[key]; dup {
		m.mu.Unlock()
		return nil
	}
	m.nextID++
	e := &Entry{
		ID:           m.nextID,
		Dataset:      spec.Dataset,
		Pred:         spec.Pred,
		PredCanon:    spec.PredCanon,
		Ranges:       spec.Ranges,
		Mode:         mode,
		Store:        st,
		Offsets:      offsets,
		FileEpoch:    spec.FileEpoch,
		CoveredBytes: spec.Covered,
		OpNanos:      opNanos,
		CacheNanos:   cacheNanos,
		LastAccess:   m.clock.Load(),
		InsertedAt:   m.clock.Load(),
		Freq:         1,
	}
	m.insertLocked(e)
	m.mu.Unlock()
	m.drainSpills()
	if mode == Eager && st != nil && m.cfg.Fleet != nil && m.spillEnabled() {
		// Replication push, outside the lock: the store is immutable, so the
		// fleet (and whatever worker it hands off to) can serialize it later
		// without racing the cache.
		m.cfg.Fleet.Replicate(spec.Dataset.Name, spec.PredCanon, st)
	}
	return e
}

// evictLocked enforces the RAM capacity limit through the configured
// policy. With the spill tier enabled, victims whose reconstruction cost
// exceeds their estimated reload cost are demoted to disk (queued on
// pendingSpills; the write runs outside the lock via drainSpills) instead
// of discarded. Only reclaimable entries are in the victim pool.
func (m *Manager) evictLocked() {
	if m.cfg.Capacity <= 0 || m.total <= m.cfg.Capacity {
		return
	}
	// Memos go first (lifecycle.go): they rebuild from payloads already in
	// RAM, where an evicted payload costs a raw rescan.
	for _, e := range m.entries {
		m.dropMemos(e)
	}
	if m.total <= m.cfg.Capacity {
		return
	}
	need := m.total - m.cfg.Capacity
	items := make([]eviction.Item, 0, len(m.entries))
	for _, e := range m.entries {
		if e.reclaimable() {
			items = append(items, m.itemFor(e))
		}
	}
	victims := m.policy.Victims(items, need)
	for _, id := range victims {
		e, ok := m.entries[id]
		if !ok {
			continue
		}
		if !m.queueSpillLocked(e) {
			m.removeLocked(e)
		}
		m.stats.evictions.Add(1)
	}
}

// itemFor snapshots an entry's accounting for the eviction policy. The
// components are read fresh so the benefit metric is recomputed at every
// eviction, as §5.1 prescribes.
func (m *Manager) itemFor(e *Entry) eviction.Item {
	next := int64(math.MaxInt64)
	if m.cfg.Oracle != nil {
		next = m.cfg.Oracle(e, m.clock.Load())
	}
	return eviction.Item{
		ID:         e.ID,
		Size:       e.SizeBytes(),
		Reuses:     e.Reuses,
		OpNanos:    e.OpNanos,
		CacheNanos: e.CacheNanos,
		ScanNanos:  e.ScanNanos,
		LookupNs:   e.LookupNs,
		LastAccess: e.LastAccess,
		Freq:       e.Freq,
		FromJSON:   e.FromJSON(),
		NextUse:    next,
	}
}

// TryStartUpgrade reserves the lazy→eager upgrade of e for one caller, so
// concurrent replays of the same lazy entry build at most one eager store.
// A successful reservation must be resolved by UpgradeLazy or CancelUpgrade.
func (m *Manager) TryStartUpgrade(e *Entry) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.begin(e, opUpgrading)
	return ok
}

// CancelUpgrade releases an upgrade reservation whose build did not finish
// (the replaying query failed).
func (m *Manager) CancelUpgrade(e *Entry) {
	m.mu.Lock()
	m.commit(inflight{e, opUpgrading, e.payload()}, result{err: errCancelled})
	m.mu.Unlock()
}

// UpgradeLazy replaces a lazy entry's offsets with a freshly built eager
// store (§5.2: a reused lazy item is replaced by an eager cache). The
// build time adds to c, the replay time becomes the observed scan cost s,
// and the size change may trigger eviction.
func (m *Manager) UpgradeLazy(e *Entry, st store.Store, buildNanos, scanWallNanos int64) {
	m.mu.Lock()
	// Nothing moves a lazy payload while its upgrade is reserved, so the
	// current payload is the one the replay read. Callers that skipped
	// TryStartUpgrade reserve here.
	m.begin(e, opUpgrading)
	ok := m.commit(inflight{e, opUpgrading, e.payload()}, result{
		payload: payload{mode: Eager, store: st, covered: e.CoveredBytes},
		account: func() {
			e.CacheNanos += buildNanos
			e.ScanNanos = scanWallNanos
		},
	})
	m.mu.Unlock()
	if ok {
		m.stats.lazyUpgrades.Add(1)
		m.drainSpills()
	}
}

// RecordLazyReplay attributes one lazy-entry replay's scan time to the
// entry, and counts the replay — batches batches — as a vectorized scan.
// Before this path existed, a lazy entry reused without upgrading never
// refreshed its s, so eviction kept ranking it by a stale (often zero) scan
// cost. The entry's mode is re-checked under the lock: if a concurrent
// upgrade landed first, the eager store's own RecordScan is the
// authoritative source; a replay's own upgrade (UpgradeLazy) lands after
// this call.
func (m *Manager) RecordLazyReplay(e *Entry, scanWallNanos, batches int64) {
	m.stats.vectorizedScans.Add(1)
	m.stats.vectorizedBatches.Add(batches)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.dead || e.Mode != Lazy {
		return
	}
	e.VecScans++
	e.ScanNanos = scanWallNanos
}
