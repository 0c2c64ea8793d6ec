// Package cache implements the ReCache core: the cache manager that matches
// query plans against cached operator results (exactly or by range
// subsumption through an R-tree index, §3.2–3.3), the automatic layout
// advisor implementing the cost model of §4.2–4.3, the reactive admission
// configuration of §5.2, and cost-based eviction through the policies in
// internal/eviction (§5.1).
package cache

import (
	"fmt"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
)

// Mode is the degree of eagerness of a cached item (Proteus terminology,
// §5.2): an eager cache stores fully parsed tuples in a binary layout; a
// lazy cache stores only the file offsets of satisfying tuples.
type Mode uint8

// Cache entry modes.
const (
	// Eager entries hold a binary Store.
	Eager Mode = iota
	// Lazy entries hold satisfying-record offsets only.
	Lazy
)

// String names the mode.
func (m Mode) String() string {
	if m == Lazy {
		return "lazy"
	}
	return "eager"
}

// Entry is one cached operator result: the output of a select over a raw
// scan, together with all the accounting the benefit metric needs
// (Figure 8: n, t, c, s, l, B).
//
// Concurrency: every mutable field is guarded by the owning Manager's lock.
// The executor reads Mode/Store/Offsets through Manager.Payload (a locked
// snapshot); stores are immutable once built, so a snapshotted store stays
// valid across concurrent upgrades, layout conversions, and evictions
// (deferred removal keeps pinned entries alive). Direct field access is
// reserved for single-threaded tests and tooling.
type Entry struct {
	ID        uint64
	Dataset   *plan.Dataset
	Pred      expr.Expr
	PredCanon string
	Ranges    *expr.RangeSet

	Mode    Mode
	Store   store.Store // eager mode
	Offsets []int64     // lazy mode (satisfying-record byte offsets)

	// Freshness provenance. FileEpoch is the provider file epoch the payload
	// was built against (0: the provider does not expose epochs, or the
	// payload is a peer's replica); it is immutable after insert.
	// CoveredBytes is the raw-file byte length the payload covers — the
	// reader that finds it trailing the file extends it (Manager.Resident);
	// guarded by the Manager's lock.
	FileEpoch    uint64
	CoveredBytes int64

	// Benefit-metric components (nanoseconds).
	OpNanos    int64 // t: executing the operator (read+parse+filter)
	CacheNanos int64 // c: building the cached representation
	ScanNanos  int64 // s: last observed cache-scan time
	LookupNs   int64 // l: last observed cache-lookup time

	Reuses     int64 // n
	Freq       int64 // insert + reuses
	LastAccess int64 // logical clock
	InsertedAt int64
	VecScans   int64 // scans served by the vectorized batch pipeline

	advisor advisorState

	// Lifecycle state (lifecycle.go), guarded by the Manager's lock and
	// written only by the transitions there: where the authoritative payload
	// lives, the one unlocked payload operation in flight, and whether the
	// entry has left every lookup structure.
	tier tier
	op   opKind
	dead bool
	pins int // active CachedScan readers (Txn pins)

	// Spill-file identity. The file outlives re-admission (payloads are
	// immutable), so a RAM-tier entry may still own one.
	spillPath   string
	spillBytes  int64
	opDone      chan struct{} // made by a reader waiting for op to end, closed when it does
	reloadNanos int64         // measured cost of the last disk re-admission

	// Join tables memoised over Store (AttachJoinTable), and their bytes,
	// which SizeBytes counts. Guarded by the Manager's lock; the tables
	// themselves are read-only once attached.
	joins     map[JoinTableKey]any
	joinBytes int64
}

// JoinTableKey names a join's hash table over an entry's store: the store
// snapshot it indexes, the key's leaf column, the key representation the
// table normalised to, and whether its row ids count flattened rows or
// records.
type JoinTableKey struct {
	Store store.Store
	Col   string
	Mode  uint8
	Flat  bool
}

// SizeBytes is B: the entry's memory footprint, its join tables included.
// An eager entry whose payload is in the disk tier holds no RAM.
func (e *Entry) SizeBytes() int64 {
	switch {
	case e.Mode == Lazy:
		return int64(len(e.Offsets))*8 + 64
	case e.Store != nil:
		return e.Store.SizeBytes() + e.joinBytes
	}
	return 0
}

// FromJSON reports whether the entry originates from a JSON dataset.
func (e *Entry) FromJSON() bool { return e.Dataset.Format == plan.FormatJSON }

// Key is the exact-match identity of the cached operator: same dataset and
// same canonical predicate means the same select operator (§3.2: same
// operation, same arguments, matching children).
func (e *Entry) Key() string { return entryKey(e.Dataset.Name, e.PredCanon) }

func entryKey(ds, predCanon string) string { return ds + "|" + predCanon }

// String renders a compact description for logs and the CLI.
func (e *Entry) String() string {
	layout := "offsets"
	if e.Mode == Eager && e.Store != nil {
		layout = e.Store.Layout().String()
	} else if e.diskOnly() {
		layout = "disk"
	}
	return fmt.Sprintf("cache[%d] %s σ(%s) %s %s n=%d %dB",
		e.ID, e.Dataset.Name, e.PredCanon, e.Mode, layout, e.Reuses, e.footprint())
}
