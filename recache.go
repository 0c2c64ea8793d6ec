// Package recache is a reactive cache-accelerated analytics engine for raw
// heterogeneous data, reproducing the system of "ReCache: Reactive Caching
// for Fast Analytics over Heterogeneous Data" (Azim, Karpathiotakis,
// Ailamaki; PVLDB 11(3), 2017).
//
// An Engine runs read-only SQL analytics directly over CSV and
// newline-delimited JSON files. As queries execute, the engine caches the
// outputs of low-level selection operators in memory and reuses them for
// later queries that match exactly or are subsumed by a cached range
// predicate. The cache is reactive along three axes:
//
//   - Layout: every entry is cached in a Parquet-style nested columnar
//     layout, and a nested entry also keeps the flattened relational
//     columnar view of it when the observed workload favors that, decided
//     by a cost model over measured scan costs; flat data's flattened view
//     is its record view.
//   - Admission: eager (fully parsed tuples) versus lazy (satisfying-tuple
//     file offsets) caching is decided per operator by sampling the actual
//     caching overhead at the start of each scan.
//   - Eviction: a Greedy-Dual policy whose benefit metric is recomputed
//     from live cost measurements, alongside classic policies (LRU, LFU,
//     cost-based and offline oracles) for comparison.
//
// Quickstart:
//
//	eng, _ := recache.Open(recache.Config{})
//	_ = eng.RegisterCSV("lineitem", "lineitem.csv",
//	    "l_orderkey int, l_quantity int, l_extendedprice float", '|')
//	res, _ := eng.Query("SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 25")
//	fmt.Println(res.Rows[0][0])
package recache

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"recache/internal/cache"
	"recache/internal/csvio"
	"recache/internal/eviction"
	"recache/internal/exec"
	"recache/internal/expr"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/sqlparse"
	"recache/internal/store"
	"recache/internal/value"
)

// ErrClosed is returned by queries submitted after Close has begun.
var ErrClosed = errors.New("recache: engine closed")

// Config configures an Engine. The zero value enables every ReCache
// mechanism with the paper's defaults: unlimited cache, Greedy-Dual
// eviction, adaptive admission (10% threshold, 1000-record samples),
// automatic layout selection, and subsumption matching.
type Config struct {
	// CacheCapacity limits the cache size in bytes (0 = unlimited).
	CacheCapacity int64
	// SpillDir enables the tiered cache: RAM-evicted entries are written
	// into this directory and stay there, a hit on one reading only the
	// columns its scan needs from the file instead of re-scanning the raw
	// file. Empty disables spilling (evictions discard payloads, the
	// pre-tiering behaviour).
	// The directory is created if missing; orphaned spill files in it are
	// removed on Open.
	SpillDir string
	// DiskCacheBytes limits the disk tier's total spill-file bytes
	// (0 = unlimited). Only meaningful with SpillDir set.
	DiskCacheBytes int64
	// Eviction selects the eviction policy: "recache" (default), "lru",
	// "lfu", "lru-json-over-csv", "cost-vectorwise", "cost-monetdb",
	// "offline-farthest-first", "offline-log-optimal".
	Eviction string
	// Admission selects cache admission: "adaptive" (default), "eager",
	// "lazy", or "off" (no caching).
	Admission string
	// AdmissionThreshold is the overhead fraction above which adaptive
	// admission switches to lazy caching (default 0.10).
	AdmissionThreshold float64
	// AdmissionSampleSize is the sampling window in records (default 1000).
	AdmissionSampleSize int
	// Layout selects when a nested entry keeps the flattened columnar view
	// of its Parquet payload: "auto" (default: when the cost model says
	// its scans pay for it), "parquet" (never) or "columnar" (from its
	// first flattening read on). Flat data has no layout decision.
	Layout string
	// DisableVectorized must stay false: every operator runs on column
	// batches, and Open rejects true, as there is no row route left to
	// switch to. The field stays only for callers that compile against it.
	DisableVectorized bool
	// DisablePushdown turns off predicate pushdown into raw scans: every
	// cache-miss scan decodes all needed fields of every record and filters
	// afterwards (pre-pushdown behaviour; ablation and benchmarking).
	DisablePushdown bool
	// Fleet makes the engine one shard of a fleet: cache misses take a
	// fleet-wide materialization lease before admitting, and (with a
	// SpillDir) eager admissions are pushed to the key's replica shard. nil
	// is the single-process default; internal/server.NewMember sets it.
	Fleet cache.Fleet
	// FreshnessMode controls reactive invalidation when registered raw
	// files mutate under a running engine:
	//
	//   - "" / "off": files are assumed immutable (the historical default);
	//     external writes lead to stale or inconsistent results.
	//   - "check" / "check-on-access": each query revalidates the file
	//     fingerprints of the datasets it touches before planning (one stat
	//     per dataset, about a microsecond). A rewritten (or truncated) file
	//     invalidates every dependent cache entry; after an append, the
	//     query that reads an entry *extends* it first by scanning only the
	//     appended tail, and entries nobody reads are left alone.
	FreshnessMode string
}

func (c Config) toCacheConfig() (cache.Config, error) {
	out := cache.Config{
		Capacity:       c.CacheCapacity,
		SpillDir:       c.SpillDir,
		DiskCacheBytes: c.DiskCacheBytes,
		Threshold:      c.AdmissionThreshold,
		SampleSize:     c.AdmissionSampleSize,
		Fleet:          c.Fleet,
	}
	switch c.Eviction {
	case "", "recache", "greedy-dual":
		out.Policy = eviction.NewGreedyDual()
	default:
		p := eviction.New(c.Eviction)
		if p == nil {
			return out, fmt.Errorf("recache: unknown eviction policy %q (valid: %v)", c.Eviction, eviction.Names())
		}
		out.Policy = p
	}
	switch c.Admission {
	case "", "adaptive":
		out.Admission = cache.Adaptive
	case "eager":
		out.Admission = cache.AlwaysEager
	case "lazy":
		out.Admission = cache.AlwaysLazy
	case "off", "none":
		out.Admission = cache.Off
	default:
		return out, fmt.Errorf("recache: unknown admission mode %q", c.Admission)
	}
	switch c.Layout {
	case "", "auto":
		out.Layout = cache.LayoutAuto
	case "parquet":
		out.Layout = cache.LayoutFixedParquet
	case "columnar":
		out.Layout = cache.LayoutFixedColumnar
	default:
		return out, fmt.Errorf("recache: unknown layout mode %q", c.Layout)
	}
	return out, nil
}

// Engine executes SQL queries over registered raw datasets with reactive
// caching. Engines are safe for concurrent use: any number of goroutines
// may call Query (and the read-only methods) simultaneously against one
// shared cache. Concurrent identical cold queries are deduplicated by
// single-flight materialization — exactly one builds the cache entry, the
// others scan raw — and eviction defers freeing an entry's store until the
// last in-flight reader of that entry finishes.
type Engine struct {
	// mu guards the dataset registry; query execution takes no engine-wide
	// lock (the cache manager synchronizes internally).
	mu       sync.RWMutex
	datasets map[string]*plan.Dataset
	manager  *cache.Manager
	// noPush disables predicate pushdown into raw scans
	// (Config.DisablePushdown).
	noPush bool
	// freshCheck (Config.FreshnessMode "check-on-access") revalidates a
	// query's datasets in prepare.
	freshCheck bool
	// closed (guarded by mu) rejects queries submitted after Close begins;
	// inflight counts queries admitted before it flipped, so Close can wait
	// for them. A query enters under mu.RLock (check closed, then Add), and
	// Close flips closed under mu.Lock before Wait — so every Add is
	// ordered before the Wait that must observe it.
	closed   bool
	inflight sync.WaitGroup
	// plans memoises planned queries by their exact SQL text (Engine.plan);
	// planMu guards it and is taken only under mu, read-locked.
	planMu sync.Mutex
	plans  map[string]*planned
}

// Open creates an engine.
func Open(cfg Config) (*Engine, error) {
	if cfg.DisableVectorized {
		return nil, errors.New("recache: DisableVectorized: the row route is gone; every operator runs on column batches")
	}
	cc, err := cfg.toCacheConfig()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		datasets: make(map[string]*plan.Dataset),
		manager:  cache.NewManager(cc),
		noPush:   cfg.DisablePushdown,
	}
	switch cfg.FreshnessMode {
	case "", "off":
	case "check", "check-on-access":
		e.freshCheck = true
	default:
		return nil, fmt.Errorf("recache: unknown freshness mode %q", cfg.FreshnessMode)
	}
	return e, nil
}

// OpenWithManager creates an engine around a pre-configured cache manager.
// It exists for in-module tooling (the benchmark harness configures
// internal knobs such as eviction oracles); library users should call Open.
func OpenWithManager(m *cache.Manager) *Engine {
	return &Engine{datasets: make(map[string]*plan.Dataset), manager: m}
}

// Manager exposes the underlying cache manager for in-module tooling.
func (e *Engine) Manager() *cache.Manager { return e.manager }

// RegisterCSV registers a CSV file as a table. schema uses the ParseSchema
// DSL; an empty schema infers column types from the file (first row, '|'
// delimited unless delim says otherwise; a header row is detected when
// inference is used and every first-row field is a string).
func (e *Engine) RegisterCSV(name, path, schema string, delim byte) error {
	opts := csvio.Options{Delim: delim}
	var st *value.Type
	var err error
	if schema == "" {
		st, err = csvio.InferSchema(path, opts)
	} else {
		st, err = ParseSchema(schema)
	}
	if err != nil {
		return err
	}
	prov, err := csvio.New(path, st, opts)
	if err != nil {
		return err
	}
	return e.register(&plan.Dataset{Name: name, Format: plan.FormatCSV, Provider: prov})
}

// RegisterJSON registers a newline-delimited JSON file as a table; schema
// (ParseSchema DSL) is required because JSON structure is not sampled.
func (e *Engine) RegisterJSON(name, path, schema string) error {
	st, err := ParseSchema(schema)
	if err != nil {
		return err
	}
	prov, err := jsonio.New(path, st)
	if err != nil {
		return err
	}
	return e.register(&plan.Dataset{Name: name, Format: plan.FormatJSON, Provider: prov})
}

func (e *Engine) register(ds *plan.Dataset) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.datasets[ds.Name]; dup {
		return fmt.Errorf("recache: table %q already registered", ds.Name)
	}
	e.datasets[ds.Name] = ds
	// A new table can make a column ambiguous: drop every plan built
	// against the old registry. Nobody holds mu.RLock, so planMu is free.
	e.plans = nil
	return nil
}

// RegisterProvider registers a custom source as a table. It exists for
// tests (gating, delaying or fault-injecting sources wrapped around the
// csvio/jsonio ones, and an in-memory oracle); library users should call
// RegisterCSV / RegisterJSON.
func (e *Engine) RegisterProvider(name string, format plan.Format, prov plan.Source) error {
	return e.register(&plan.Dataset{Name: name, Format: format, Provider: prov})
}

// AdmitReplica admits a peer-pushed RCS payload as a disk-tier cache
// entry for (table, predCanon). It is the receiving side of fleet
// replication: the key's owner ships each eager admission here so a shard
// death leaves a warm copy one rendezvous hop away. predCanon must be a
// canonical predicate string as produced by expr.Canonical ("true" or
// empty for an unconstrained entry); it is parsed back and re-canonicalized
// as a guard, so a payload can never be filed under a key its predicate
// doesn't mean. Admission is idempotent — a duplicate push or a key the
// local cache already built is dropped silently.
func (e *Engine) AdmitReplica(table, predCanon string, payload []byte) error {
	if err := e.beginQuery(); err != nil {
		return err
	}
	defer e.inflight.Done()
	e.mu.RLock()
	ds, ok := e.datasets[table]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("recache: replica push for unknown table %q", table)
	}
	var pred expr.Expr
	if predCanon == "" {
		predCanon = "true"
	}
	if predCanon != "true" {
		q, err := sqlparse.Parse("SELECT COUNT(*) FROM " + table + " WHERE " + predCanon)
		if err != nil {
			return fmt.Errorf("recache: replica predicate %q: %w", predCanon, err)
		}
		pred = q.Where
		if pred == nil || pred.Canonical() != predCanon {
			return fmt.Errorf("recache: replica predicate %q does not round-trip", predCanon)
		}
	}
	return e.manager.AdmitReplica(ds, pred, predCanon, payload)
}

// ExportEntries serializes every exportable eager cache entry (RAM or
// disk tier) and hands each (table, predCanon, RCS payload) to fn. A
// draining shard uses it to stream its working set to the new rendezvous
// owners before exiting; the payloads are byte-identical to what
// AdmitReplica accepts. Lazy entries are skipped — their offset lists are
// process-local. fn returning an error aborts the export.
func (e *Engine) ExportEntries(fn func(table, predCanon string, payload []byte) error) error {
	if err := e.beginQuery(); err != nil {
		return err
	}
	defer e.inflight.Done()
	return e.manager.ExportPayloads(fn)
}

// RawScans reports how many full raw-file scans the named table's provider
// has performed (the cold-burst bench metric: every concurrent cold miss
// scans the file itself). It returns -1 when the table is
// unknown or its provider does not count scans.
func (e *Engine) RawScans(name string) int64 {
	e.mu.RLock()
	ds, ok := e.datasets[name]
	e.mu.RUnlock()
	if !ok {
		return -1
	}
	if sc, ok := ds.Provider.(interface{ Scans() int64 }); ok {
		return sc.Scans()
	}
	return -1
}

// RawPushdownStats reports the named table's provider-level pushdown
// counters: raw scans that evaluated a pushdown below parsing and the
// records those scans skipped before full decode. It returns (-1, -1) when
// the table is unknown or its provider does not count pushdown scans.
func (e *Engine) RawPushdownStats(name string) (scans, skipped int64) {
	e.mu.RLock()
	ds, ok := e.datasets[name]
	e.mu.RUnlock()
	if !ok {
		return -1, -1
	}
	if ps, ok := ds.Provider.(interface{ PushdownStats() (int64, int64) }); ok {
		return ps.PushdownStats()
	}
	return -1, -1
}

// Tables lists the registered table names.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.datasets))
	for n := range e.datasets {
		out = append(out, n)
	}
	sortStrings(out)
	return out
}

// TableSchema returns the schema DSL of a registered table.
func (e *Engine) TableSchema(name string) (string, error) {
	e.mu.RLock()
	ds, ok := e.datasets[name]
	e.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("recache: unknown table %q", name)
	}
	return FormatSchema(ds.Schema()), nil
}

// QueryStats reports the cost accounting of one query.
type QueryStats struct {
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// CacheBuild is the build time the query waited for: what building
	// cache entries added to its wall time — a build's helper goroutine
	// decoding beside the query costs only the joins that waited for it.
	CacheBuild time.Duration
	// CacheScan is time spent reading from in-memory caches.
	CacheScan time.Duration
	// LayoutSwitch is time spent deriving flattened views of nested cache
	// entries.
	LayoutSwitch time.Duration
	// Overhead is CacheBuild / Wall (the paper's t_c/t_o).
	Overhead float64
	// Rows is the number of result rows.
	Rows int
	// ResultBatches counts the column batches the plan root handed over;
	// 0 means the result was empty.
	ResultBatches int
}

// Result is a fully materialized query result. Row values are Go natives:
// int64, float64, string, bool, or nil for SQL NULL. Rows that came out of
// one column batch share a backing slab: a retained row keeps up to a
// batch of its neighbours alive.
type Result struct {
	Columns []string
	Rows    [][]any
	Stats   QueryStats
}

// beginQuery admits one query against the engine lifecycle: it fails with
// ErrClosed once Close has begun, and otherwise registers the query so
// Close waits for it. The check-then-Add runs under mu.RLock while Close
// flips closed under mu.Lock before waiting, so every successful Add is
// ordered before the Wait that must observe it.
func (e *Engine) beginQuery() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	e.inflight.Add(1)
	return nil
}

// Close shuts the engine down gracefully: queries submitted after Close
// begins fail with ErrClosed, in-flight queries run to completion, queued
// disk-tier demotions are flushed so no evicted payload is lost between
// "queued for spill" and process exit, and the spill files' mappings are
// released. Close is idempotent and safe to call concurrently with
// queries; every call returns only once the engine is fully drained.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
	e.manager.Close()
	return nil
}

// prepare takes one query's plan (from the plan cache, or parsed and
// planned) and opens its cache transaction. The returned Txn pins every
// cache entry the rewrite hit (so eviction cannot free a store mid-scan)
// and reserved single-flight build slots for the misses; the caller must
// Close it even when execution fails.
func (e *Engine) prepare(sql string) (plan.Node, exec.Deps, *cache.Txn, error) {
	e.mu.RLock()
	pl, err := e.plan(sql)
	e.mu.RUnlock()
	if err != nil {
		return nil, exec.Deps{}, nil, err
	}
	if e.freshCheck {
		// Revalidate the query's datasets before the cache rewrite, so the
		// lookup below compares entries with the file's current version.
		// Errors are deliberately not surfaced here: a failed revalidation
		// already dropped the dataset's entries, and the scan itself
		// reports the underlying IO failure with context.
		seen := make(map[*plan.Dataset]bool)
		plan.Walk(pl.root, func(n plan.Node) {
			if sc, ok := n.(*plan.Scan); ok && !seen[sc.DS] {
				seen[sc.DS] = true
				e.manager.Revalidate(sc.DS)
			}
		})
	}
	tx := e.manager.Begin()
	root := pl.root
	if !pl.recordRef {
		root = tx.Rewrite(root, pl.neededNames)
	}
	deps := exec.Deps{
		Manager:         e.manager,
		Needed:          pl.neededPaths,
		DisablePushdown: e.noPush,
	}
	return root, deps, tx, nil
}

func toQueryStats(stats *exec.QueryStats) QueryStats {
	return QueryStats{
		Wall:          stats.Wall,
		CacheBuild:    time.Duration(stats.CacheBuildNanos),
		CacheScan:     time.Duration(stats.CacheScanNanos),
		LayoutSwitch:  time.Duration(stats.LayoutSwitchNanos),
		Overhead:      stats.Overhead(),
		Rows:          stats.RowsOut,
		ResultBatches: stats.ResultBatches,
	}
}

func fieldNames(schema *value.Type) []string {
	names := make([]string, len(schema.Fields))
	for i, f := range schema.Fields {
		names[i] = f.Name
	}
	return names
}

// epochRetries bounds how often one query restarts after losing a race
// with a concurrent file rewrite (a lazy replay or a tail extension failing
// with plan.ErrEpochChanged). Each retry rewrites the cached plan against
// the reconciled cache, so a single retry usually suffices; the bound keeps
// a file being rewritten in a tight loop from starving the query forever.
const epochRetries = 3

// Query parses, plans, rewrites against the cache, and executes one SQL
// query. Query is safe to call from many goroutines at once; each call
// runs a private compiled pipeline against the shared cache. If the
// underlying file of a cache entry is rewritten mid-execution (freshness
// modes only), the query transparently retries against the reconciled
// cache.
func (e *Engine) Query(sql string) (*Result, error) {
	if err := e.beginQuery(); err != nil {
		return nil, err
	}
	defer e.inflight.Done()
	for retry := 0; ; retry++ {
		res, err := e.queryOnce(sql)
		if errors.Is(err, plan.ErrEpochChanged) && retry < epochRetries {
			continue
		}
		return res, err
	}
}

// nativeSink is Query's result sink: batches box straight into native
// rows.
type nativeSink struct{ rows [][]any }

func (s *nativeSink) Batch(cols []*store.Vec, sel []int32) error {
	s.rows = store.AppendNative(s.rows, cols, sel)
	return nil
}

func (e *Engine) queryOnce(sql string) (*Result, error) {
	root, deps, tx, err := e.prepare(sql)
	if err != nil {
		return nil, err
	}
	defer tx.Close()
	sink := nativeSink{rows: [][]any{}}
	stats, err := exec.RunInto(root, deps, &sink)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns: fieldNames(root.OutSchema()),
		Rows:    sink.rows,
		Stats:   toQueryStats(stats),
	}, nil
}

// BatchResult is a query result kept columnar: the result rows live in a
// Parquet-layout store instead of boxed row slices. It is the zero-copy
// result shape for the wire path — store.WriteParquet serializes Store
// into the RCS frame the server ships, and the receiving client rebuilds
// an identical store with store.ReadParquetBytes against Schema.
type BatchResult struct {
	Columns []string
	// Schema is the result-record type (one field per output column).
	Schema *value.Type
	// Store holds the result rows in the Parquet layout.
	Store store.Store
	Stats QueryStats
}

// QueryColumnar executes one SQL query like Query but materializes the
// result as a columnar batch in a Parquet-layout store: the plan root's
// batches are appended to the store's column vectors (a result with a
// sub-record column is striped in row by row). The serving layer uses this so a result crosses the wire as
// the same RCS bytes a disk spill would hold.
func (e *Engine) QueryColumnar(sql string) (*BatchResult, error) {
	if err := e.beginQuery(); err != nil {
		return nil, err
	}
	defer e.inflight.Done()
	for retry := 0; ; retry++ {
		res, err := e.queryColumnarOnce(sql)
		if errors.Is(err, plan.ErrEpochChanged) && retry < epochRetries {
			continue
		}
		return res, err
	}
}

// builderSink is QueryColumnar's result sink: the builder gathers a batch's
// selected entries into its own column vectors, retaining nothing.
type builderSink struct{ b *store.Builder }

func (s builderSink) Batch(cols []*store.Vec, sel []int32) error {
	return s.b.AppendBatch(cols, sel)
}

func (e *Engine) queryColumnarOnce(sql string) (*BatchResult, error) {
	root, deps, tx, err := e.prepare(sql)
	if err != nil {
		return nil, err
	}
	defer tx.Close()
	schema := root.OutSchema()
	b, err := store.NewBuilder(store.LayoutParquet, schema)
	if err != nil {
		return nil, err
	}
	stats, err := exec.RunInto(root, deps, builderSink{b})
	if err != nil {
		return nil, err
	}
	return &BatchResult{
		Columns: fieldNames(schema),
		Schema:  schema,
		Store:   b.Finish(),
		Stats:   toQueryStats(stats),
	}, nil
}

// Explain returns the rewritten physical plan of a query as indented text,
// showing cache hits (CachedScan) and materializers. Raw Scan nodes of a
// freshness-checking engine are annotated with whether the provider tracks
// file versions. Select nodes sitting directly on a
// raw Scan are annotated with the predicate split a miss would execute:
// the conjuncts pushed below parsing and the residual the pipeline still
// applies (e.g. "pushdown: [l_quantity>=20, l_quantity<=40]"). CachedScan
// nodes are annotated with the batches the hit would read right now and
// the entry's tier, joins with their probe batches. Explain is free of
// side effects: it performs the cache lookup through the manager's
// read-only path (and only reads entry payload snapshots), so reuse
// counters, hit/miss statistics, and eviction state are untouched.
func (e *Engine) Explain(sql string) (string, error) {
	e.mu.RLock()
	pl, err := e.plan(sql)
	noPush := e.noPush
	e.mu.RUnlock()
	if err != nil {
		return "", err
	}
	root := pl.root
	if !pl.recordRef {
		root = e.manager.Peek(root, pl.neededNames)
	}
	return plan.ExplainAnnotated(root, func(n plan.Node) string {
		switch x := n.(type) {
		case *plan.CachedScan:
			return vecNote(x, e.manager)
		case *plan.Join:
			return joinNote(x, e.manager)
		case *plan.Select:
			return pushNote(x, noPush)
		case *plan.Scan:
			return freshNote(e.freshCheck)
		}
		return ""
	}), nil
}

// freshNote annotates a raw Scan of a freshness-checking engine. The note
// is static configuration — it never stats or loads the file, keeping
// EXPLAIN side-effect-free.
func freshNote(check bool) string {
	if !check {
		return ""
	}
	return "freshness: check-on-access"
}

// pushNote annotates a Select directly over a raw Scan with the predicate
// split pushdown would execute on a miss; empty for any other select.
func pushNote(sel *plan.Select, noPush bool) string {
	scan, ok := sel.Child.(*plan.Scan)
	if !ok || sel.Pred == nil {
		return ""
	}
	if noPush {
		return "pushdown: off"
	}
	pd, residual := expr.ExtractPushdown(sel.Pred, scan.DS.Schema())
	if pd == nil {
		return ""
	}
	s := "pushdown: " + pd.String()
	if residual != nil {
		s += ", residual: " + residual.Canonical()
	}
	return s
}

// vecNote annotates a CachedScan with the batches it would read and its
// cache tier. A spilled entry's batches are known only once a scan reads
// its columns from the file, so the note carries the tier alone. The probe
// stays side-effect-free: it reads the entry's payload snapshot and never
// reads the file itself.
func vecNote(cs *plan.CachedScan, m *cache.Manager) string {
	if entry, ok := cs.Entry.(*cache.Entry); ok && m.EntryTier(entry) == "disk" {
		return "tier: disk (projected read)"
	}
	ok, batches := exec.VectorizedInfo(cs, m)
	if !ok {
		return "tier: ram"
	}
	return fmt.Sprintf("vectorized, %d batches, tier: ram", batches)
}

// joinNote annotates a Join with its expected probe batch count.
func joinNote(j *plan.Join, m *cache.Manager) string {
	ok, batches := exec.VectorizedJoinInfo(j, m)
	if !ok {
		return "join: vectorized"
	}
	return fmt.Sprintf("join: vectorized, %d probe batches", batches)
}

// CacheStats summarizes cache behaviour since the engine opened. It is the
// cache manager's own snapshot type, so the embedded engine, the daemon's
// /stats blob and the shell's \stats report the same counters.
type CacheStats = cache.Stats

// CacheStats returns a snapshot of the cache counters. The counters are
// maintained atomically, so the snapshot is safe to take while queries are
// running (individual counters are exact; the set is weakly consistent).
func (e *Engine) CacheStats() CacheStats { return e.manager.Stats() }

// EntryInfo describes one live cache entry.
type EntryInfo struct {
	ID        uint64
	Table     string
	Predicate string
	Mode      string // "eager" or "lazy"
	// Layout is what a flattening scan reads: "columnar" when it needs no
	// expansion (a flat schema, or an attached view), "parquet" when it
	// expands the payload, "offsets" for a lazy entry, "disk" when spilled.
	Layout string
	Bytes  int64 // RAM footprint; spill-file bytes for disk entries
	Reuses int64
}

// CacheEntries lists the live cache entries (sorted by id). The returned
// snapshot is taken under the cache lock, so it is safe to call while
// queries are running.
func (e *Engine) CacheEntries() []EntryInfo {
	views := e.manager.Snapshot()
	out := make([]EntryInfo, len(views))
	for i, v := range views {
		layout := "offsets"
		if v.Mode == cache.Eager && v.HasStore {
			layout = v.Layout.String()
		} else if v.OnDisk {
			layout = "disk"
		}
		out[i] = EntryInfo{
			ID:        v.ID,
			Table:     v.Dataset,
			Predicate: v.PredCanon,
			Mode:      v.Mode.String(),
			Layout:    layout,
			Bytes:     v.Bytes,
			Reuses:    v.Reuses,
		}
	}
	return out
}
