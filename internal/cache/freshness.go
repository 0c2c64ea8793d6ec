package cache

import (
	"errors"
	"fmt"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
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
// that cannot — another epoch, a trailing nested store, a trailing replica —
// into a miss. Resident (spill.go) is where a trailing entry catches up: the
// reader that needs the payload scans the tail, outside the manager lock
// against the provider's immutable snapshot, and commits the extended
// payload through the lifecycle's begin/commit pair. Entries nobody reads
// are never touched, whichever tier they are in.

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
// appended tail, or a rewrite. extendable: a scan of the tail makes p
// current. A rewrite leaves nothing to extend; a replica (epoch 0) covers a
// length its pusher knew, not one this process can scan from. Callers hold
// the manager lock: Version is an atomic load, except in the window between
// a rewrite's reset and the invalidation that follows it, where it re-reads
// the file.
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
	return true, e.FileEpoch != 0
}

// servableLocked reports whether a lookup may hand e to a reader: it is
// current, or Resident can make it so. An entry that can do neither is
// dropped (kept, under a read-only lookup) and the lookup misses.
func (m *Manager) servableLocked(e *Entry, readOnly bool) bool {
	trailing, extendable := e.lag(e.payload())
	if !trailing || extendable {
		return true
	}
	if !readOnly {
		m.invalidateLocked(e)
	}
	return false
}

// extend is the unlocked half of a catch-up and its commit. o is the
// extension begun on e, or nil when p is the reader's private copy and
// there is nothing to commit. The extended payload is the caller's to scan
// whether or not it was installed: a payload whose tail scan saw the file
// grow is a consistent prefix of it, but covers a length nobody recorded,
// so it is not committed. A failed extension drops the entry.
func (m *Manager) extend(e *Entry, p payload, o *inflight) (payload, error) {
	next := p
	t, err := scanTail(e, p)
	if err == nil {
		next, err = t.appendTo(p)
	}
	m.mu.Lock()
	if o != nil {
		res := result{payload: next, err: err, stale: !t.empty()}
		if err == nil && !t.stable {
			res.err = errCancelled
		}
		if m.commit(*o, res) {
			m.stats.tailExtensions.Add(1)
		}
	}
	if err != nil {
		m.invalidateLocked(e)
	}
	m.mu.Unlock()
	if err != nil {
		return p, fmt.Errorf("cache: extend entry %d: %v: %w", e.ID, err, plan.ErrEpochChanged)
	}
	m.drainSpills()
	return next, nil
}

// tail is what one predicate-filtered scan of a file's appended tail found
// for an entry: the satisfying records (an eager payload gains them) or
// their offsets (a lazy one does), and the length the file was covered to.
// The scan reads to the provider's current end, so it is bracketed with
// Version like a build: stable reports that the version did not move, i.e.
// that the payload plus this tail covers exactly covered bytes.
type tail struct {
	recs    []value.Value
	offsets []int64
	covered int64
	stable  bool
}

// empty: no tail record satisfies the predicate, so the payload already is
// the answer for the longer file and only its covered length moves.
func (t tail) empty() bool { return len(t.recs)+len(t.offsets) == 0 }

// scanTail scans e's file from old.covered on. A rewrite inside the bracket
// means the scan read bytes of another file and is an error.
func scanTail(e *Entry, old payload) (tail, error) {
	ds := e.Dataset
	rp := ds.Provider.(plan.RefreshableProvider)
	pred, err := expr.CompilePredicate(e.Pred, ds.Schema())
	if err != nil {
		return tail{}, err
	}
	epoch, covered := rp.Version()
	t := tail{covered: covered}
	err = rp.ScanFrom(old.covered, nil, func(rec value.Value, off int64, _ func() error) error {
		switch {
		case !pred(rec.L):
		case old.mode == Lazy:
			t.offsets = append(t.offsets, off)
		default:
			t.recs = append(t.recs, value.VRecord(append([]value.Value(nil), rec.L...)...))
		}
		return nil
	})
	epoch1, covered1 := rp.Version()
	if epoch != e.FileEpoch || epoch1 != epoch {
		return t, errors.New("file rewritten under the tail scan")
	}
	t.stable = covered1 == covered
	return t, err
}

// appendTo builds old's successor: a lazy payload gains the offsets in a
// fresh slice (readers replaying the old offsets must not see the tail
// appended into their backing array), an eager one the records through
// store.Extend, which copies the store's column vectors wholesale (a memcpy
// of the old bytes, per-record work only for the tail).
func (t tail) appendTo(old payload) (payload, error) {
	next := old
	next.covered = t.covered
	switch {
	case t.empty():
	case old.mode == Lazy:
		next.offsets = append(append(make([]int64, 0, len(old.offsets)+len(t.offsets)), old.offsets...), t.offsets...)
	default:
		st, _, err := store.Extend(old.store, t.recs)
		if err != nil {
			return old, err
		}
		next.store = st
	}
	return next, nil
}
