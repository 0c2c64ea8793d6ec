package cache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// Replica admission. A fleet shard owning a cache key pushes the entry's
// RCS payload to the key's replica (the next shard in rendezvous order)
// after every eager admission, and streams its whole working set out the
// same way when draining. The receiving side lands here: the payload goes
// straight into the disk tier as a spill file, so a replica costs no RAM;
// after a failover the normal disk-hit path (Resident) reads it like any
// spilled entry.
//
// Replica entries carry FileEpoch 0: the receiving process has its own
// provider epoch numbering, so a pushed epoch would be meaningless here.
// CoveredBytes is the length this process's provider covers at admission —
// not a length the payload was built from, so a replica never extends: the
// first lookup that finds the file grown past it drops it (Entry.lag), a
// detected rewrite drops it with the rest of the dataset, and the owner
// re-replicates after its own rebuild.

// errNoDiskTier reports replica admission without a configured spill dir.
var errNoDiskTier = errors.New("cache: replica admission requires the disk tier (no spill dir configured)")

// AdmitReplica admits a peer-pushed payload as a disk-tier entry for
// (ds, pred). The payload must be an RCS stream of ds's schema; it is
// decoded once up front, every leaf, so a corrupt push is rejected instead
// of poisoning the disk tier with a file that fails at its first hit.
// Nothing of that decode is kept. Admission is
// idempotent: if any entry for the key already exists (a local build or an
// earlier push won), the push is dropped silently.
func (m *Manager) AdmitReplica(ds *plan.Dataset, pred expr.Expr, predCanon string, payload []byte) error {
	if !m.spillEnabled() {
		return errNoDiskTier
	}
	ranges, err := expr.ExtractRanges(pred, ds.Schema())
	if err != nil {
		return fmt.Errorf("cache: replica admission: %w", err)
	}
	schema := ds.Schema()
	if _, err := store.ReadParquetOwned(bytes.NewReader(payload), int64(len(payload)), schema, store.AllLeaves(schema)); err != nil {
		return fmt.Errorf("cache: replica payload for %s: %w", ds.Name, err)
	}

	var covered int64
	if rp, ok := ds.Provider.(plan.RefreshableProvider); ok {
		_, covered = rp.Version()
	}

	key := entryKey(ds.Name, predCanon)
	m.mu.Lock()
	if _, dup := m.byKey[key]; dup {
		m.mu.Unlock()
		return nil
	}
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	// The file write runs outside the lock, like every spill write.
	path := m.spillFile(id)
	n, err := atomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("cache: replica spill: %w", err)
	}

	m.mu.Lock()
	if _, dup := m.byKey[key]; dup {
		// A local build landed while the file was being written.
		m.mu.Unlock()
		os.Remove(path)
		return nil
	}
	e := &Entry{
		ID:           id,
		Dataset:      ds,
		Pred:         pred,
		PredCanon:    predCanon,
		Ranges:       ranges,
		Mode:         Eager,
		CoveredBytes: covered,
		LastAccess:   m.clock.Load(),
		InsertedAt:   m.clock.Load(),
		Freq:         1,
		spillPath:    path,
		spillBytes:   n,
	}
	m.insertLocked(e)
	m.stats.replicaAdmits.Add(1)
	m.mu.Unlock()
	m.drainSpills()
	return nil
}

// exportItem is one entry's payload source, snapshotted under the lock.
type exportItem struct {
	dataset, predCanon string
	schema             *value.Type
	st                 store.Store // RAM copy, or nil:
	spillPath          string      // the payload is in the disk tier
	spillBytes         int64
}

// ExportPayloads serializes every exportable eager entry through the RCS
// writer — a disk-tier entry's payload read back from its spill file first,
// every leaf — and hands each (dataset, predCanon, payload) to fn. A draining
// shard uses it to stream its working set to the new rendezvous owners.
// Lazy entries are skipped: their offset lists index this process's raw
// files and carry no payload worth shipping. So are entries that trail
// their raw file: the receiver stamps what it admits as current with its own
// provider, which would make a trailing payload a stale read there. Entries
// whose payload cannot be serialized (or whose spill file vanished
// mid-export) are skipped, not fatal; fn returning an error aborts the
// export.
func (m *Manager) ExportPayloads(fn func(dataset, predCanon string, payload []byte) error) error {
	m.mu.Lock()
	items := make([]exportItem, 0, len(m.entries))
	for _, e := range m.entries {
		if e.Mode != Eager {
			continue
		}
		if trailing, _ := e.lag(e.payload()); !trailing {
			items = append(items, exportItem{e.Dataset.Name, e.PredCanon, e.Dataset.Schema(), e.Store, e.spillPath, e.spillBytes})
		}
	}
	m.mu.Unlock()

	var buf bytes.Buffer
	for _, it := range items {
		st := it.st
		if st == nil {
			var err error
			if st, err = readSpillFile(it.spillPath, it.spillBytes, it.schema, store.AllLeaves(it.schema)); err != nil {
				continue // dropped or evicted mid-export
			}
		}
		buf.Reset()
		if err := store.WriteParquet(&buf, st); err != nil {
			continue
		}
		if err := fn(it.dataset, it.predCanon, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
