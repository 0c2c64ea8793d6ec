package cache

import (
	"errors"
	"time"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// Reactive invalidation. ReCache's caching unit is a select over a raw
// file scan, so every cached payload is a claim about that file's bytes.
// Revalidate keeps the claim honest when files mutate under a running
// engine: the provider classifies the change (unchanged / appended /
// rewritten, see internal/freshness), and the cache responds at entry
// granularity — rewrites drop every dependent entry (and its spill file),
// while appends *extend* entries in place by scanning only the new tail,
// so a growing log file never forces a full re-parse of its cold prefix.
//
// Versioning is two-level. The provider epoch (bumped on every rewrite)
// is captured into Entry.FileEpoch at build time; an entry whose epoch no
// longer matches the provider's was built against dead bytes and can only
// be dropped. Within an epoch, the covered byte length grows monotonically,
// so Entry.CoveredBytes against the provider's covered length decides
// exactly which tail an extension must scan.
//
// Locking mirrors the spill tier: classification and tail scans run
// outside the manager lock against immutable snapshots; the extended
// payload goes in through the lifecycle's begin/commit pair, and a commit
// that finds the entry moved falls back to invalidation. A per-dataset
// single-flight gate (refreshing) keeps a burst of queries from stat'ing
// and re-parsing the same tail concurrently.

// AbandonBuild releases a materializer's single-flight build slot without
// inserting an entry. Materializers call it when the provider's file
// version moved between the version capture and the end of the build: the
// payload mixes bytes from two file states and must not be admitted.
func (m *Manager) AbandonBuild(spec *BuildSpec) {
	m.mu.Lock()
	if spec.SlotTx != 0 && m.building[spec.SlotKey] == spec.SlotTx {
		delete(m.building, spec.SlotKey)
	}
	m.mu.Unlock()
}

// Revalidate re-checks ds's raw file against its cached entries, dropping
// entries the file outgrew (rewrites) and extending entries over appended
// tails. Concurrent revalidations of the same dataset are
// single-flight: the loser waits for the winner and returns an unchanged
// report. Providers that do not implement plan.RefreshableProvider are
// never stale by definition (their files are assumed immutable).
func (m *Manager) Revalidate(ds *plan.Dataset) (plan.FreshnessReport, error) {
	rp, ok := ds.Provider.(plan.RefreshableProvider)
	if !ok {
		return plan.FreshnessReport{Status: plan.FileUnchanged}, nil
	}

	m.refreshMu.Lock()
	if ch, busy := m.refreshing[ds.Name]; busy {
		m.refreshMu.Unlock()
		<-ch
		// The winner just reconciled the cache with the file; by the time
		// this query rewrites its plan the entries are current enough.
		return plan.FreshnessReport{Status: plan.FileUnchanged}, nil
	}
	ch := make(chan struct{})
	m.refreshing[ds.Name] = ch
	m.refreshMu.Unlock()
	defer func() {
		m.refreshMu.Lock()
		delete(m.refreshing, ds.Name)
		// Stamp completion (success or failure) so the watch-mode poller's
		// skip window rate-limits the stat either way: a broken file is
		// re-probed once per interval, not once per tick overrun.
		m.lastReval[ds.Name] = time.Now()
		m.refreshMu.Unlock()
		close(ch)
	}()

	// Classification and tail ingestion run in the provider, outside the
	// manager lock (they stat and possibly parse file bytes).
	rep, err := rp.Refresh()
	if err != nil {
		// An unreadable file proves nothing about the cached bytes, but
		// serving them would silently mask the IO failure: drop them so the
		// next query surfaces the provider error.
		m.invalidateDataset(ds.Name)
		return rep, err
	}
	m.stats.tailBytesScanned.Add(rep.TailBytes)

	switch rep.Status {
	case plan.FileUnchanged:
	case plan.FileRewritten:
		m.invalidateDataset(ds.Name)
	default:
		m.extendDataset(ds, rp, rep)
	}
	return rep, nil
}

// RevalidateBatch revalidates every dataset in dss whose last completed
// revalidation is older than skipWithin, coalescing the staleness check
// into one lock acquisition for the whole batch. The watch-mode poller
// calls it once per tick: with thousands of registered datasets, the tick
// pays one map scan plus a stat per genuinely unchecked dataset — datasets
// already revalidated within the window (by a query's check-on-access, a
// previous overrunning tick, or another engine sharing the manager) cost
// no syscall at all.
func (m *Manager) RevalidateBatch(dss []*plan.Dataset, skipWithin time.Duration) {
	cutoff := time.Now().Add(-skipWithin)
	due := dss[:0:0]
	m.refreshMu.Lock()
	for _, ds := range dss {
		if _, ok := ds.Provider.(plan.RefreshableProvider); !ok {
			continue
		}
		if last, ok := m.lastReval[ds.Name]; ok && last.After(cutoff) {
			continue
		}
		due = append(due, ds)
	}
	m.refreshMu.Unlock()
	for _, ds := range due {
		// Best effort: a provider error already dropped the dataset's
		// entries inside Revalidate, and the next query surfaces it.
		_, _ = m.Revalidate(ds)
	}
}

// invalidateDataset drops every entry cached from the dataset. Pinned
// entries die through the usual deferred-removal path, so readers mid-scan
// finish against their snapshotted (old-version) payload.
func (m *Manager) invalidateDataset(name string) {
	m.mu.Lock()
	for _, e := range m.entries {
		if e.Dataset.Name == name {
			m.invalidateLocked(e)
		}
	}
	m.mu.Unlock()
}

// invalidateLocked removes an entry its raw file outgrew.
func (m *Manager) invalidateLocked(e *Entry) {
	if m.removeLocked(e) {
		m.stats.staleInvalidations.Add(1)
	}
}

// extendDataset reconciles the dataset's entries with an appended file:
// entries from older epochs (or untracked builds) are dropped, current
// entries already covering the new length are untouched, and the rest are
// extended by scanning only the appended tail. Entries that cannot begin
// an extension — another operation in flight, or the payload in the disk
// tier — are dropped rather than extended: an append burst hitting such an
// entry is rare enough that rebuilding is the simpler correct answer.
func (m *Manager) extendDataset(ds *plan.Dataset, rp plan.RefreshableProvider, rep plan.FreshnessReport) {
	for _, o := range m.beginExtensions(ds, rep) {
		m.extend(ds, rp, rep, o)
	}
	m.drainSpills()
}

func (m *Manager) beginExtensions(ds *plan.Dataset, rep plan.FreshnessReport) []inflight {
	var work []inflight
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.Dataset.Name != ds.Name {
			continue
		}
		switch {
		case e.FileEpoch == 0 || e.FileEpoch != rep.Epoch:
			m.invalidateLocked(e)
		case e.CoveredBytes >= rep.Covered:
			// Already covers the appended tail (a racing build admitted it).
		default:
			if o, ok := m.begin(e, opExtending); ok {
				work = append(work, o)
			} else {
				m.invalidateLocked(e)
			}
		}
	}
	return work
}

// extend is the unlocked half of one entry's extension: the tail scan
// against the snapshot, then the commit. A tail that failed to parse or an
// entry that moved mid-extension falls back to invalidation, never to a
// half-extended payload.
func (m *Manager) extend(ds *plan.Dataset, rp plan.RefreshableProvider, rep plan.FreshnessReport, o inflight) {
	var res result
	res.payload, res.err = extendPayload(ds, rp, o.e.Pred, o.snap)
	res.covered = rep.Covered
	m.mu.Lock()
	if m.commit(o, res) {
		m.stats.tailExtensions.Add(1)
	} else {
		m.invalidateLocked(o.e)
	}
	m.mu.Unlock()
}

// replayExtend is the slow extension path for store layouts without a
// copy fast path: the old payload is replayed row by row through a fresh
// builder and the tail records are appended after it.
func replayExtend(src store.Store, schema *value.Type, tail []value.Value) (store.Store, error) {
	builder, err := store.NewBuilder(src.Layout(), schema)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(src.Columns()))
	for i := range cols {
		cols[i] = i
	}
	if _, err := src.ScanRecords(cols, func(row []value.Value) error {
		return builder.Add(value.Value{Kind: value.Record, L: row})
	}); err != nil {
		return nil, err
	}
	for _, rec := range tail {
		if err := builder.Add(rec); err != nil {
			return nil, err
		}
	}
	return builder.Finish(), nil
}

// errNestedExtend sends nested datasets down the invalidation path.
var errNestedExtend = errors.New("cache: nested stores never extend")

// extendPayload builds old's successor over the appended tail with one
// predicate-filtered tail scan. A lazy payload gains the offsets of the
// satisfying tail records. An eager payload gains the records themselves
// through store.Extend, which copies the flat layouts' column vectors
// wholesale (a memcpy of the old bytes, per-row work only for the tail);
// layouts without the copy fast path fall back to replaying the old store
// through a builder. Replay goes through ScanRecords, which cannot project
// repeated columns, so nested datasets never extend.
func extendPayload(ds *plan.Dataset, rp plan.RefreshableProvider, predExpr expr.Expr, old payload) (payload, error) {
	schema := ds.Schema()
	if old.mode == Eager && value.RepeatedFieldCached(schema) != nil {
		return old, errNestedExtend
	}
	pred, err := expr.CompilePredicate(predExpr, schema)
	if err != nil {
		return old, err
	}
	next := old
	if old.mode == Lazy {
		// A fresh slice: readers replaying the old offsets must not see
		// the tail appended into their backing array.
		next.offsets = append(make([]int64, 0, len(old.offsets)), old.offsets...)
	}
	var tail []value.Value
	err = rp.ScanFrom(old.covered, nil, func(rec value.Value, off int64, _ func() error) error {
		switch {
		case !pred(rec.L):
		case old.mode == Lazy:
			next.offsets = append(next.offsets, off)
		default:
			tail = append(tail, value.VRecord(append([]value.Value(nil), rec.L...)...))
		}
		return nil
	})
	if err != nil || old.mode == Lazy {
		return next, err
	}
	st, ok, err := store.Extend(old.store, tail)
	if err == nil && !ok {
		st, err = replayExtend(old.store, schema, tail)
	}
	next.store = st
	return next, err
}
