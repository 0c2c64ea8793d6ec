package cache

import (
	"errors"
	"os"

	"recache/internal/eviction"
	"recache/internal/rtree"
	"recache/internal/store"
)

// Entry lifecycle. An entry's state is three fields, and the functions in
// this file are the only code that writes them, the spill-file identity, the
// join tables memoised on the store, or the byte gauges m.total /
// m.diskTotal / m.diskEntries:
//
//   - tier: where the authoritative payload lives. tierRAM entries hold
//     their Store / Offsets (a spill file they still own is a redundant
//     copy that makes the next demotion free); tierDisk entries live in
//     their spill file, and keep a RAM copy only while readers that pinned
//     them before the demotion are still scanning it.
//   - op: the one unlocked payload operation in flight. Its result is built
//     from the snapshot begin takes and installed by commit; the manager
//     lock is released in between, so commit re-verifies that the entry is
//     alive and still holds the snapshotted payload.
//   - dead: the entry left every lookup structure. Readers that pinned it
//     keep scanning their snapshot; its RAM bytes are released at the last
//     unpin. Nothing revives a dead entry.

type tier uint8

const (
	tierRAM tier = iota
	tierDisk
)

type opKind uint8

const (
	opIdle       opKind = iota
	opUpgrading         // a lazy replay is building the eager store
	opConverting        // a scan is rewriting the store in another layout
	opSpilling          // queued for, or being written to, the spill dir
	opLoading           // a reader is re-admitting the spill file
	opExtending         // a reader is scanning the appended tail
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
// payload to install and, for a spill, the file that now holds it too.
type result struct {
	payload
	spillPath  string
	spillBytes int64
	err        error // the operation failed: abandon it
	// stale: the payload gained rows the entry's spill file does not hold.
	stale bool
	// account, if set, runs after the swap and before eviction re-prices
	// the entry, for cost components the operation measured.
	account func()
}

var errCancelled = errors.New("cache: operation cancelled")

// diskOnly: a reader must re-admit the spill file before it can scan.
func (e *Entry) diskOnly() bool { return e.tier == tierDisk && e.Store == nil }

// dropOnUnpin: demoted while readers were mid-scan; the RAM copy goes at
// the last unpin.
func (e *Entry) dropOnUnpin() bool { return e.tier == tierDisk && e.Store != nil }

// reclaimable: evicting the entry frees RAM. Demoted entries hold none that
// is theirs to give, and a spill in flight has already spoken for it.
func (e *Entry) reclaimable() bool { return e.tier == tierRAM && e.op != opSpilling }

// keptSpillFile: a resident entry still owns the file of an earlier
// demotion, so demoting it again costs no serialization or IO — and the
// file is the first thing the disk tier reclaims under pressure.
func (e *Entry) keptSpillFile() bool { return e.tier == tierRAM && e.spillPath != "" }

// footprint is the bytes a scan of the entry reads: its RAM size, or its
// spill-file size when the payload must first come back from disk.
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
	case opConverting:
		ok = e.Mode == Eager && e.tier == tierRAM
	case opSpilling: // an entry that kept its file demotes for free instead
		ok = e.Mode == Eager && e.tier == tierRAM && e.spillPath == ""
	case opExtending: // a RAM copy kept for pinned readers extends too
		ok = !e.diskOnly()
	case opLoading:
		ok = e.diskOnly()
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
// payload, moves the byte gauges, drops a spill file the new payload made
// stale, tells the policy about a tier change and re-enforces both budgets.
// It reports whether res was installed.
func (m *Manager) commit(o inflight, res result) bool {
	e := o.e
	if e.op == o.op && e.holds(o.snap) {
		e.endOp()
	} else {
		// A free demotion took the payload away mid-operation (and another
		// operation may have begun on its successor since).
		res.err = errCancelled
	}
	if e.dead && e.pins > 0 && o.op == opLoading && res.err == nil {
		// Readers that pinned the entry before it was removed wait on this
		// load; the last of them releases the bytes.
		e.Store = res.store
		m.total += e.SizeBytes()
	}
	if e.dead || res.err != nil {
		if res.spillPath != "" {
			os.Remove(res.spillPath)
		}
		return false
	}
	m.dropJoinTables(e) // they index the payload being replaced
	before := e.SizeBytes()
	if res.stale {
		// A kept spill file serializes the pre-append payload; a free
		// demotion would resurrect it.
		m.releaseSpillFile(e)
	}
	e.Mode, e.Store, e.Offsets, e.CoveredBytes = res.mode, res.store, res.offsets, res.covered
	m.total += e.SizeBytes() - before
	if res.account != nil {
		res.account()
	}
	switch {
	case o.op == opSpilling:
		e.spillPath, e.spillBytes = res.spillPath, res.spillBytes
		m.diskTotal += res.spillBytes
		m.diskEntries++
		m.demoteLocked(e)
		m.evictDiskLocked()
	case e.tier == tierDisk:
		e.tier = tierRAM
		m.policy.OnPromote(e.ID)
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
	if e.spillPath != "" {
		// A replica arrives as a spill file: track it where it lives.
		e.tier = tierDisk
		m.diskTotal += e.spillBytes
		m.diskEntries++
		m.policy.OnDemote(e.ID)
		m.evictDiskLocked()
	}
	m.evictLocked()
}

// demoteLocked makes the entry's spill file authoritative. Readers mid-scan
// keep the RAM copy until the last of them unpins. A conversion or
// extension still rebuilding the RAM copy loses: its commit finds the
// operation gone.
func (m *Manager) demoteLocked(e *Entry) {
	m.dropJoinTables(e)
	e.tier = tierDisk
	e.endOp()
	m.policy.OnDemote(e.ID)
	if e.pins == 0 {
		m.dropRAMPayload(e)
	}
}

// removeLocked kills a live entry: it leaves every lookup structure, the
// policy and the disk tier now, and RAM at the last unpin — so eviction
// never frees a store out from under a running CachedScan. It reports
// whether the entry was alive.
func (m *Manager) removeLocked(e *Entry) bool {
	if e.dead {
		return false
	}
	e.dead = true
	m.releaseSpillFile(e)
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
	}
	return true
}

// unpinLocked drops one reader reference; the last one releases the RAM a
// removal or demotion left behind for the readers.
func (m *Manager) unpinLocked(e *Entry) {
	if e.pins == 0 {
		return
	}
	e.pins--
	if e.pins == 0 && (e.dead || e.dropOnUnpin()) {
		m.dropRAMPayload(e)
	}
}

// dropRAMPayload releases the entry's RAM bytes. A demoted entry gives up
// its store (the spill file has the payload) and with it an extension of
// that store still in flight; a dead one keeps its pointers for whoever
// still holds the *Entry and goes with it.
func (m *Manager) dropRAMPayload(e *Entry) {
	m.dropJoinTables(e)
	m.total -= e.SizeBytes()
	if !e.dead {
		e.Store = nil
		e.endOp()
	}
}

// AttachJoinTable memoises table, a join's hash table over e's store
// snapshot k.Store, charging its bytes to the RAM budget. It installs the
// table only if e is alive, still holds that store in the RAM tier, and the
// table fits in the budget's free room: a memo never evicts anything. The
// table stays until the payload it indexes leaves RAM or is replaced
// (commit, demoteLocked, dropRAMPayload), or until the budget overflows:
// evictLocked sheds every table before it evicts a payload. It reports
// whether it installed the table.
func (m *Manager) AttachJoinTable(e *Entry, k JoinTableKey, table any, bytes int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.dead || e.tier != tierRAM || e.Store == nil || e.Store != k.Store || e.joins[k] != nil {
		return false
	}
	if m.cfg.Capacity > 0 && m.total+bytes > m.cfg.Capacity {
		return false
	}
	if e.joins == nil {
		e.joins = make(map[JoinTableKey]any)
	}
	e.joins[k] = table
	e.joinBytes += bytes
	m.total += bytes
	return true
}

// JoinTable returns the join table memoised on e under k, or nil.
func (m *Manager) JoinTable(e *Entry, k JoinTableKey) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return e.joins[k]
}

// dropJoinTables releases the join tables memoised on e and their bytes.
func (m *Manager) dropJoinTables(e *Entry) {
	m.total -= e.joinBytes
	e.joins, e.joinBytes = nil, 0
}

// releaseSpillFile deletes the entry's spill file, if it owns one, and
// returns its bytes to the disk budget.
func (m *Manager) releaseSpillFile(e *Entry) {
	if e.spillPath == "" {
		return
	}
	os.Remove(e.spillPath)
	m.diskTotal -= e.spillBytes
	m.diskEntries--
	e.spillPath, e.spillBytes = "", 0
}

// untiered adapts a policy without disk-tier state: it sees demotion as
// removal and promotion as insertion (exact for the stateless comparators).
type untiered struct{ eviction.Policy }

func (u untiered) OnDemote(id uint64)  { u.OnRemove(id) }
func (u untiered) OnPromote(id uint64) { u.OnInsert(id) }
func (untiered) OnDiskRemove(uint64)   {}
func (u untiered) DiskVictims(items []eviction.Item, need int64) []uint64 {
	return u.Victims(items, need)
}
