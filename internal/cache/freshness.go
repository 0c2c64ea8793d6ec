package cache

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"recache/internal/plan"
	"recache/internal/store"
)

// Reactive invalidation. ReCache's caching unit is a select over a raw
// file scan, so every cached payload is a claim about that file's bytes.
// The claim is checked where the payload is used, by one comparison: the
// entry's (FileEpoch, CoveredBytes) against the provider's Version.
//
// Versioning is two-level. The provider epoch (bumped on every rewrite) is
// captured into Entry.FileEpoch at build time; an entry whose epoch no
// longer matches the provider's was built against dead bytes and can only
// be dropped. Within an epoch the covered byte length grows monotonically,
// so an entry whose CoveredBytes trails the provider's is a correct answer
// for a prefix of the file, and the tail it lacks is exactly the bytes from
// CoveredBytes on.
//
// Revalidate only moves the provider (and drops a rewritten file's entries).
// The lookup serves an entry that is current or can catch up, and turns one
// that cannot — another epoch, a trailing replica, a spill file the tail
// has outgrown — into a miss. Resident (spill.go) is where a trailing entry
// catches up: the reader that needs the payload reads the tail the way a
// miss reads the file, outside the manager lock against the provider's
// immutable snapshot, and commits a RAM entry's extended payload through
// the lifecycle's begin/commit pair: the committed payload is the old one's
// chunks with the tail's linked behind them (store.Append), so the old
// payload's memory is shared with the new one, not duplicated. A spill
// file is never rewritten, so a reader of a trailing one links the tail
// behind its own read of it and commits nothing.
// Entries nobody reads are never touched, whichever tier they are in.

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

// Revalidate re-checks ds's raw file: the provider ingests an appended tail
// or resets under a new epoch (concurrent calls serialise on the file's own
// lock), and a rewritten or unreadable file drops every entry cached from
// it. Entries an append left trailing stay; their next reader extends them.
// Providers that do not implement plan.RefreshableProvider are never stale
// by definition (their files are assumed immutable).
func (m *Manager) Revalidate(ds *plan.Dataset) (plan.FreshnessReport, error) {
	rp, ok := ds.Provider.(plan.RefreshableProvider)
	if !ok {
		return plan.FreshnessReport{Status: plan.FileUnchanged}, nil
	}
	rep, err := rp.Refresh()
	if err != nil {
		// An unreadable file proves nothing about the cached bytes, but
		// serving them would silently mask the IO failure: drop them so the
		// next query surfaces the provider error.
		m.invalidateDataset(ds.Name)
		return rep, err
	}
	m.stats.tailBytesScanned.Add(rep.TailBytes)
	if rep.Status == plan.FileRewritten {
		m.invalidateDataset(ds.Name)
	}
	return rep, nil
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

// lag compares p, a payload of e, with e's raw file as its provider last
// ingested it. trailing: the file holds bytes p does not answer for — an
// appended tail, or a rewrite. extendable: a scan of the tail through a
// plan.Source makes p current. A rewrite leaves nothing to extend; a
// replica (epoch 0) covers a length its pusher knew, not one this process
// can scan from. Callers hold the manager lock: Version is an atomic load,
// except in the window between a rewrite's reset and the invalidation that
// follows it, where it re-reads the file.
func (e *Entry) lag(p payload) (trailing, extendable bool) {
	rp, ok := e.Dataset.Provider.(plan.RefreshableProvider)
	if !ok {
		return false, false
	}
	epoch, covered := rp.Version()
	if e.FileEpoch != 0 && e.FileEpoch != epoch {
		return true, false
	}
	if p.covered >= covered {
		return false, false
	}
	_, typed := rp.(plan.Source)
	return true, e.FileEpoch != 0 && typed
}

// servableLocked reports whether a lookup may hand e to a reader: it is
// current, or Resident can make it so at a bounded cost. An entry that can
// do neither is dropped (kept, under a read-only lookup) and the lookup
// misses.
//
// The bound is on spill files. Every read of a file that trails its raw
// file decodes the same tail again, for the file is never rewritten. A
// rebuild reads the prefix the file covers plus the tail once, and what it
// builds is current for every read after it. So once the tail is longer
// than that prefix, a rebuild costs less than two more such reads, and the
// entry is dropped for one.
func (m *Manager) servableLocked(e *Entry, readOnly bool) bool {
	trailing, extendable := e.lag(e.payload())
	if trailing && extendable && e.onDisk() {
		_, covered := e.Dataset.Provider.(plan.RefreshableProvider).Version()
		extendable = covered-e.CoveredBytes <= e.CoveredBytes
	}
	if !trailing || extendable {
		return true
	}
	if !readOnly {
		m.invalidateLocked(e)
	}
	return false
}

// extend is the unlocked half of a catch-up and its commit. o is the
// extension begun on e, or nil when p is the reader's private copy — its
// read of a spill file, or a payload its entry no longer holds — and there
// is nothing to commit. The extended payload is the caller's to scan
// whether or not it was installed: a payload whose tail scan saw the file
// grow is a consistent prefix of it, but covers a length nobody recorded,
// so it is not committed. A failed extension drops the entry.
func (m *Manager) extend(e *Entry, p payload, o *inflight) (payload, error) {
	next, stable, err := catchUp(e, p)
	m.mu.Lock()
	extended := o == nil && err == nil
	if o != nil {
		res := result{payload: next, err: err}
		if err == nil && !stable {
			res.err = errCancelled
		}
		extended = m.commit(*o, res)
	}
	if extended {
		m.stats.tailExtensions.Add(1)
	}
	if err != nil {
		m.invalidateLocked(e)
	}
	m.mu.Unlock()
	if err != nil {
		return p, fmt.Errorf("cache: extend entry %d: %v: %w", e.ID, err, plan.ErrEpochChanged)
	}
	if o != nil {
		m.drainSpills() // what the commit's eviction queued
	}
	return next, nil
}

// catchUp builds old's successor over the tail e's file gained since
// old.covered. The tail is read to the provider's current end, so it is
// bracketed with Version like a build: stable reports that the version did
// not move, i.e. that next covers exactly the length it claims. A rewrite
// inside the bracket means the read saw bytes of another file and is an
// error.
func catchUp(e *Entry, old payload) (next payload, stable bool, err error) {
	src := e.Dataset.Provider.(plan.Source) // lag admits no other provider
	epoch, covered := src.Version()
	next, err = appendTail(src, e, old)
	next.covered = covered
	epoch1, covered1 := src.Version()
	if epoch != e.FileEpoch || epoch1 != epoch {
		return next, false, errors.New("file rewritten under the tail scan")
	}
	return next, covered1 == covered, err
}

// appendTail reads the records from old.covered on that pass e's predicate
// as a miss reads them from 0 — the source's pushdown cursor, then the
// residual filter — and appends them to old: a lazy payload gains their
// offsets in a fresh slice (readers replaying the old offsets must not see
// the tail appended into their backing array), an eager one a chunk of the
// leaf vectors the typed kernel decodes them into, linked behind old's
// chunks by store.Append. Old's vectors are shared, never copied, except
// when the merge rule folds a chunk into one the tail has caught up with.
// Only the leaves old holds are decoded: a read of a spill file holds those
// its scan needs, and its chain is [views of the mapping, the tail's
// chunk]. A tail that nothing in passes leaves the payload as it is.
func appendTail(src plan.Source, e *Entry, old payload) (payload, error) {
	schema := src.Schema()
	pd, residual, err := plan.SplitPredicate(e.Pred, schema, true)
	var cursor plan.OffsetCursor
	if err == nil {
		cursor, err = src.PushdownCursor(e.FileEpoch, old.covered, pd)
	}
	var offs []int64
	if err == nil {
		offs, _, err = cursor(nil, math.MaxInt) // the whole tail at once
	}
	if err == nil && residual != nil {
		offs, err = residual.Filter(src, e.FileEpoch, offs)
	}
	next := old
	switch {
	case err != nil || len(offs) == 0:
	case old.mode == Lazy:
		next.offsets = slices.Concat(old.offsets, offs)
	default:
		vecs := store.TailColumns(old.store)
		var lengths []int32
		if lengths, err = src.AppendColumns(e.FileEpoch, offs, vecs, nil); err == nil {
			next.store, err = store.Append(old.store, len(offs), vecs, lengths)
		}
	}
	return next, err
}
