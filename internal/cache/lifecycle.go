package cache

import (
	"errors"
	"os"

	"recache/internal/eviction"
	"recache/internal/rtree"
	"recache/internal/store"
)

// Entry lifecycle. An entry's state is its tier, the operation in flight
// and whether it is dead, and the functions in this file are the only code
// that writes them, the state memoised on the store (its flattened view and
// join tables), or the byte gauges m.total / m.diskTotal / m.diskEntries:
//
//   - tier: an entry in the RAM tier holds its Store / Offsets and has no
//     spill file; an entry in the disk tier is its spill file (spillPath)
//     and that file's mapping (spillMap), and keeps a RAM copy only while
//     readers that pinned it before the demotion are still scanning it.
//     Entries move between the tiers only at eviction (RAM → disk, a spill)
//     and at removal; a disk hit decodes views of the mapping into the
//     reader's own store and changes nothing here.
//   - op: the one unlocked payload operation in flight. Its result is built
//     from the snapshot begin takes and installed by commit; the manager
//     lock is released in between, so commit re-verifies that the entry is
//     alive and still holds the snapshotted payload.
//   - dead: the entry left every lookup structure. Readers that pinned it
//     keep scanning their snapshot, or the views of its mapping; its RAM
//     bytes, its file and its mapping are released at the last unpin.
//     Nothing revives a dead entry.

type opKind uint8

const (
	opIdle      opKind = iota
	opUpgrading        // a lazy replay is building the eager store
	opSpilling         // queued for, or being written to, the spill dir
	opExtending        // a reader is scanning the appended tail
)

// payload is what an operation snapshots at begin and replaces at commit.
type payload struct {
	mode    Mode
	store   store.Store
	offsets []int64
	covered int64
}

func (e *Entry) payload() payload {
	return payload{e.Mode, e.Store, e.Offsets, e.CoveredBytes}
}

// holds: the entry's payload is still p.
func (e *Entry) holds(p payload) bool {
	return e.Mode == p.mode && e.Store == p.store &&
		len(e.Offsets) == len(p.offsets) && e.CoveredBytes == p.covered
}

// inflight is a begun operation: the entry, what is being done to it and
// the payload it held at begin.
type inflight struct {
	e    *Entry
	op   opKind
	snap payload
}

// result is what the unlocked half of an operation hands to commit: the RAM
// payload to install and, for a spill, the file that now holds it and the
// file's mapping.
type result struct {
	payload
	spillPath string
	spillMap  []byte
	err       error // the operation failed: abandon it
	// account, if set, runs after the swap and before eviction re-prices
	// the entry, for cost components the operation measured.
	account func()
}

var errCancelled = errors.New("cache: operation cancelled")

// onDisk: the entry is in the disk tier, its spill file.
func (e *Entry) onDisk() bool { return e.spillPath != "" }

// diskOnly: a reader reads the spill file to scan the entry.
func (e *Entry) diskOnly() bool { return e.onDisk() && e.Store == nil }

// dropOnUnpin: demoted while readers were mid-scan; the RAM copy goes at
// the last unpin.
func (e *Entry) dropOnUnpin() bool { return e.onDisk() && e.Store != nil }

// reclaimable: evicting the entry frees RAM. Demoted entries hold none that
// is theirs to give, and a spill in flight has already spoken for it.
func (e *Entry) reclaimable() bool { return !e.onDisk() && e.op != opSpilling }

// footprint is the bytes the entry holds: its RAM size, or its spill-file
// size when its payload is only on disk.
func (e *Entry) footprint() int64 {
	if e.diskOnly() {
		return e.spillBytes
	}
	return e.SizeBytes()
}

// begin reserves e for one unlocked payload operation and snapshots the
// payload the operation builds on. It fails when the entry is dead, busy
// with another operation, or not where op needs it.
func (m *Manager) begin(e *Entry, op opKind) (inflight, bool) {
	ok := false
	switch op {
	case opUpgrading:
		ok = e.Mode == Lazy
	case opSpilling:
		ok = e.Mode == Eager && !e.onDisk()
	case opExtending: // a file is never rewritten: only the RAM tier extends
		ok = !e.onDisk()
	}
	if !ok || e.dead || e.op != opIdle {
		return inflight{}, false
	}
	e.op = op
	return inflight{e, op, e.payload()}, true
}

// endOp returns e to idle and wakes the readers waiting for that (awaitOp).
func (e *Entry) endOp() {
	e.op = opIdle
	if e.opDone != nil {
		close(e.opDone)
		e.opDone = nil
	}
}

// awaitOp blocks until the operation in flight on e ends. It is entered and
// left with the manager lock held and releases it for the wait; whoever
// waits must first run the spills it queued itself, or it could be waiting
// for its own work.
func (m *Manager) awaitOp(e *Entry) {
	if e.opDone == nil {
		e.opDone = make(chan struct{})
	}
	gate := e.opDone
	m.mu.Unlock()
	m.drainSpills()
	<-gate
	m.mu.Lock()
}

// commit ends an operation and, if it succeeded and the entry is still
// alive and still holds the snapshotted payload, installs res: swaps the
// payload, moves the byte gauges, demotes the entry to the file a spill
// wrote and re-enforces both budgets. It reports whether res was installed.
func (m *Manager) commit(o inflight, res result) bool {
	e := o.e
	if e.op == o.op && e.holds(o.snap) {
		e.endOp()
	} else {
		// The operation was taken from under it (another may have begun on
		// the entry since).
		res.err = errCancelled
	}
	if e.dead || res.err != nil {
		if res.spillPath != "" {
			os.Remove(res.spillPath)
		}
		if res.spillMap != nil {
			store.Unmap(res.spillMap)
		}
		return false
	}
	m.dropMemos(e) // they derive from the payload being replaced
	before := e.SizeBytes()
	e.Mode, e.Store, e.Offsets, e.CoveredBytes = res.mode, res.store, res.offsets, res.covered
	m.total += e.SizeBytes() - before
	if res.account != nil {
		res.account()
	}
	if o.op == opSpilling {
		e.spillPath, e.spillBytes, e.spillMap = res.spillPath, int64(len(res.spillMap)), res.spillMap
		m.diskTotal += e.spillBytes
		m.diskEntries++
		m.demoteLocked(e)
		m.evictDiskLocked()
	}
	m.evictLocked()
	return true
}

// insertLocked makes a new entry live: it enters the lookup structures and
// is charged to the tier it occupies, which may push others out.
func (m *Manager) insertLocked(e *Entry) {
	m.entries[e.ID] = e
	m.byKey[e.Key()] = e
	m.stats.inserted.Add(1)
	if len(e.Ranges.Residuals) == 0 {
		if len(e.Ranges.Cols) == 0 {
			u := m.uncon[e.Dataset.Name]
			if u == nil {
				u = make(map[uint64]*Entry)
				m.uncon[e.Dataset.Name] = u
			}
			u[e.ID] = e
		} else {
			for col, iv := range e.Ranges.Cols {
				key := e.Dataset.Name + "|" + col
				tree := m.indexes[key]
				if tree == nil {
					tree = rtree.New(1)
					m.indexes[key] = tree
				}
				_ = tree.Insert(rtree.Interval1D(iv.Lo, iv.Hi), e.ID)
			}
		}
	}
	m.total += e.SizeBytes()
	m.policy.OnInsert(e.ID)
	if e.onDisk() {
		// A replica arrives as a mapped spill file: track it where it lives.
		m.diskTotal += e.spillBytes
		m.diskEntries++
		m.policy.OnDemote(e.ID)
		m.evictDiskLocked()
	}
	m.evictLocked()
}

// demoteLocked makes the entry's new spill file its payload. Readers
// mid-scan keep the RAM copy until the last of them unpins.
func (m *Manager) demoteLocked(e *Entry) {
	m.dropMemos(e)
	m.policy.OnDemote(e.ID)
	if e.pins == 0 {
		m.dropRAMPayload(e)
	}
}

// removeLocked kills a live entry: it leaves every lookup structure and the
// policy now, and RAM and the disk tier at the last unpin — so eviction
// never frees a store, nor unmaps a spill file, out from under a running
// CachedScan. It reports whether the entry was alive.
func (m *Manager) removeLocked(e *Entry) bool {
	if e.dead {
		return false
	}
	e.dead = true
	delete(m.entries, e.ID)
	if m.byKey[e.Key()] == e {
		delete(m.byKey, e.Key())
	}
	if u := m.uncon[e.Dataset.Name]; u != nil {
		delete(u, e.ID)
	}
	if len(e.Ranges.Residuals) == 0 {
		for col, iv := range e.Ranges.Cols {
			if tree := m.indexes[e.Dataset.Name+"|"+col]; tree != nil {
				tree.Delete(rtree.Interval1D(iv.Lo, iv.Hi), e.ID)
			}
		}
	}
	m.policy.OnRemove(e.ID)
	m.policy.OnDiskRemove(e.ID)
	if e.pins == 0 {
		m.dropRAMPayload(e)
		m.releaseSpillFile(e)
	}
	return true
}

// unpinLocked drops one reader reference; the last one releases the RAM
// and the spill file (with its mapping) a removal, or the RAM copy a
// demotion, left behind for the readers.
func (m *Manager) unpinLocked(e *Entry) {
	if e.pins == 0 {
		return
	}
	e.pins--
	switch {
	case e.pins > 0:
	case e.dead:
		m.dropRAMPayload(e)
		m.releaseSpillFile(e)
	case e.dropOnUnpin():
		m.dropRAMPayload(e)
	}
}

// dropRAMPayload releases the entry's RAM bytes. A demoted entry gives up
// its store (the spill file has the payload); a dead one keeps its pointers
// for whoever still holds the *Entry and goes with it.
func (m *Manager) dropRAMPayload(e *Entry) {
	m.dropMemos(e)
	m.total -= e.SizeBytes()
	if !e.dead {
		e.Store = nil
	}
}

// Memos. State derived from an entry's payload — the flattened view
// (advisor.go) and the join tables over the payload or the view — is kept on
// the entry and charged to the RAM budget by the bytes it holds beyond the
// payload. A memo attaches only if its entry is alive, still holds the
// store it derives from in the RAM tier, and its bytes fit in the budget's
// free room: a memo never evicts anything. Memos stay until the payload
// leaves RAM or is replaced (commit, demoteLocked, dropRAMPayload), or until
// the budget overflows: evictLocked sheds every memo before it evicts a
// payload, because a memo rebuilds from a payload already in RAM, where an
// evicted payload costs a raw rescan.

// memoFitsLocked reports whether a memo of bytes over st, e's payload or
// its view, may attach to e.
func (m *Manager) memoFitsLocked(e *Entry, st store.Store, bytes int64) bool {
	if e.dead || e.onDisk() || e.Store == nil || (st != e.Store && st != e.view) {
		return false
	}
	return m.cfg.Capacity <= 0 || m.total+bytes <= m.cfg.Capacity
}

// AttachJoinTable memoises table, a join's hash table over k.Store — e's
// store snapshot or the view attached to it — charging its bytes to the RAM
// budget, under the memo rules above. It reports whether it installed the
// table.
func (m *Manager) AttachJoinTable(e *Entry, k JoinTableKey, table any, bytes int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.joins[k] != nil || !m.memoFitsLocked(e, k.Store, bytes) {
		return false
	}
	if e.joins == nil {
		e.joins = make(map[JoinTableKey]any)
	}
	e.joins[k] = table
	e.memoBytes += bytes
	m.total += bytes
	return true
}

// JoinTable returns the join table memoised on e under k, or nil.
func (m *Manager) JoinTable(e *Entry, k JoinTableKey) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return e.joins[k]
}

// dropMemos releases every memo on e — its view and its join tables — and
// their bytes.
func (m *Manager) dropMemos(e *Entry) {
	m.total -= e.memoBytes
	e.view, e.joins, e.memoBytes = nil, nil, 0
}

// releaseSpillFile deletes the entry's spill file, if it owns one, unmaps
// it and returns its bytes to the disk budget. No reader is left: the
// entry is dead and its last pin is gone.
func (m *Manager) releaseSpillFile(e *Entry) {
	if e.spillPath == "" {
		return
	}
	os.Remove(e.spillPath)
	unmapSpill(e)
	m.diskTotal -= e.spillBytes
	m.diskEntries--
	e.spillPath, e.spillBytes = "", 0
}

// unmapSpill releases the entry's mapping of its spill file, if it holds
// one.
func unmapSpill(e *Entry) {
	if e.spillMap != nil {
		store.Unmap(e.spillMap)
		e.spillMap = nil
	}
}

// untiered adapts a policy without disk-tier state: it sees demotion as
// removal (exact for the stateless comparators).
type untiered struct{ eviction.Policy }

func (u untiered) OnDemote(id uint64) { u.OnRemove(id) }
func (untiered) OnDiskRemove(uint64)  {}
func (u untiered) DiskVictims(items []eviction.Item, need int64) []uint64 {
	return u.Victims(items, need)
}
