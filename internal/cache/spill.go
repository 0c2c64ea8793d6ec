package cache

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"recache/internal/eviction"
	"recache/internal/store"
)

// The disk spill tier. When RAM eviction selects a victim whose
// reconstruction cost (raw scan + build, t+c) exceeds the estimated cost
// of reading it back from disk, the victim is demoted instead of discarded:
// its payload, the Parquet form, is written as it is to a file in
// Config.SpillDir, while the entry itself — predicate, ranges, accounting,
// R-tree membership — stays in RAM, so lookups keep matching it. The entry
// then is its file, which is mapped once, read-only, when the spill
// commits (a replica's when it is admitted), and unmapped only where the
// file is unlinked: at the entry's last unpin after its removal, or when
// the manager closes. A hit on it decodes only the leaves its scan
// projects, as views of that mapping: the RCS stream's column directory
// (store/serial.go) says where each leaf's section lies, and the store's
// null words, ints, floats and list lengths are those sections themselves
// (its strings and bools are copied out). A disk hit makes no system call,
// and the page cache is the only copy of the payload in memory. The
// reader's pin keeps the mapping while it scans: every query pins the
// entries it scans (Txn), and so does ExportPayloads. Nothing is
// re-admitted, committed, charged to RAM or evicted on a read, so an entry
// leaves the disk tier only when it is removed; one that turns hot again is
// served from disk until a build evicts what RAM holds.
//
// Serialization, the file write and its mapping are the unlocked half of
// the opSpilling operation (lifecycle.go); only cheap unlinks and unmaps
// happen under the lock, so a spill file's lifetime stays in step with the
// entry state it mirrors.

// spillEnabled reports whether the disk tier is configured.
func (m *Manager) spillEnabled() bool { return m.cfg.SpillDir != "" }

// spillFile names an entry's spill file.
func (m *Manager) spillFile(id uint64) string {
	return filepath.Join(m.cfg.SpillDir, fmt.Sprintf("spill-%d.rcp", id))
}

// initSpillDir creates the spill directory and removes orphaned spill
// files (finished or temporary) left by a previous process — spilled
// entries are not durable: their metadata lived in that process's RAM.
func (m *Manager) initSpillDir() {
	dir := m.cfg.SpillDir
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		m.cfg.SpillDir = "" // unusable directory: degrade to RAM-only
		return
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if strings.HasPrefix(name, "spill-") &&
			(strings.HasSuffix(name, ".rcp") || strings.HasSuffix(name, ".tmp")) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// queueSpillLocked begins e's demotion if it has a payload to write (begin
// decides: an idle eager entry with a resident store — lazy offset lists
// are cheap and just go) and the demotion is profitable: a spilled
// entry that costs as much to reload as to rebuild is dead weight in the
// disk budget. drainSpills performs the write.
func (m *Manager) queueSpillLocked(e *Entry) bool {
	if !m.spillEnabled() || e.OpNanos+e.CacheNanos <= m.reloadEstimate(e) {
		return false
	}
	o, ok := m.begin(e, opSpilling)
	if ok {
		m.pendingSpills = append(m.pendingSpills, o)
	}
	return ok
}

// reloadEstimate prices a disk hit in nanoseconds: the entry's latest
// measured decode when one exists, otherwise a fixed 1 µs for the header
// and directory plus 2 ns per KB of file (sz/512). A disk hit decodes views
// of the file's mapping, so its cost is per column, not per byte: on a
// 2-vCPU box an 805 KB lineitem-shaped spill file decodes whole in ~2.6 µs
// and two of its nine leaves in ~1.4 µs (BenchmarkSpillReload, medians of
// 8 runs), where the model says ~2.6 µs. The model overstates a projected
// decode, and it leaves out the page faults of the first scan of a fresh
// mapping; one disk hit replaces it with the entry's own number.
func (m *Manager) reloadEstimate(e *Entry) int64 {
	if e.reloadNanos > 0 {
		return e.reloadNanos
	}
	sz := e.spillBytes
	if sz == 0 {
		sz = e.SizeBytes()
	}
	return sz/512 + 1_000
}

// Close completes every queued RAM→disk demotion synchronously, so no
// evicted payload is lost between "queued for spill" and process exit, and
// then unmaps every spill file. A closing engine calls it after its last
// query drains: no reader holds a pin, so nothing reads a mapping any more.
// The files stay until the next manager on the directory removes them
// (initSpillDir); a disk hit after Close fails.
func (m *Manager) Close() {
	m.drainSpills()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		unmapSpill(e)
	}
}

// drainSpills performs queued demotions. Callers invoke it after releasing
// the manager lock; each spill write runs unlocked and commits under the
// lock, and a commit may queue further work (its evictLocked), hence the
// loop. A pinned victim keeps its RAM copy until the last unpin: entries
// are never spilled out from under a scan.
func (m *Manager) drainSpills() {
	for {
		m.mu.Lock()
		pend := m.pendingSpills
		m.pendingSpills = nil
		m.mu.Unlock()
		if len(pend) == 0 {
			return
		}
		for _, o := range pend {
			res := result{payload: o.snap, spillPath: m.spillFile(o.e.ID)}
			res.err = atomicWrite(res.spillPath, func(w io.Writer) error {
				return store.WriteParquet(w, o.snap.store)
			})
			if res.err == nil {
				res.spillMap, res.err = store.MapFile(res.spillPath)
			}
			m.mu.Lock()
			if m.commit(o, res) {
				m.stats.spills.Add(1)
			} else if res.err != nil && m.removeLocked(o.e) {
				// The disk tier is unusable for this entry: evict for real.
				m.stats.spillDrops.Add(1)
			}
			m.mu.Unlock()
		}
	}
}

// atomicWrite streams a spill file through write into a temp file in the
// target directory and renames it into place, so a concurrent reader never
// sees a half-written file under a live spill name; on any error the temp
// file is removed. No fsync: spill files are cache state, not durable
// state — after a crash, startup removes orphans and an entry whose file
// turns out unreadable is simply dropped, so durability would buy nothing
// and the sync would dominate the demotion cost.
func atomicWrite(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Resident returns a payload of e that a reader can scan, current with e's
// raw file as its provider last ingested it. leaves names the part of the
// payload the reader scans; a RAM payload is returned whole.
//
//   - A payload in RAM that trails the file within its epoch is extended
//     over the appended tail and committed back to the entry, single-flight
//     per entry: a second reader waits for the extension in flight and
//     reads what it committed. A reader whose entry died, or was demoted,
//     keeps the payload it has and catches that up privately.
//   - A payload in the disk tier is decoded from its file's mapping, those
//     leaves only, into a store that is the reader's alone and whose
//     fixed-width vectors are views of the mapping — never a raw re-scan,
//     and nothing is committed, charged or evicted: the entry stays on
//     disk. A file that trails its raw file is caught up the same private
//     way: the tail's chunk, in memory of the reader's own, is linked
//     behind the views, which are not copied. The decode pins e while it
//     runs; the views stay readable for as long as the caller's own pin
//     holds, which every query has (Txn) for the entries it scans.
//
// An extension that fails drops the entry and returns plan.ErrEpochChanged:
// the caller re-plans against the miss; a spill file that cannot be
// decoded drops the entry too. Side-effect-free readers (EXPLAIN, tooling)
// use Payload instead.
func (m *Manager) Resident(e *Entry, leaves store.Leaves) (Mode, store.Store, []int64, error) {
	m.mu.Lock()
	p := e.payload()
	for {
		var err error
		if p.mode == Eager && p.store == nil {
			spill := e.spillMap
			if spill == nil {
				// The entry died, and its file went with its last pin: a
				// reader that held no pin. Or the manager closed.
				m.mu.Unlock()
				return p.mode, nil, nil, fmt.Errorf("cache: entry %d lost its spilled payload", e.ID)
			}
			e.pins++ // the decode's own: the mapping stays until it is done
			m.mu.Unlock()
			p, err = m.readDisk(e, p, spill, leaves)
			return p.mode, p.store, p.offsets, err
		}
		if trailing, extendable := e.lag(p); !trailing || !extendable {
			m.mu.Unlock()
			return p.mode, p.store, p.offsets, nil
		}
		var o *inflight // nil: p is this reader's own to extend, nothing to commit
		if !e.dead && !e.onDisk() && e.holds(p) {
			begun, ok := m.begin(e, opExtending)
			if !ok {
				m.awaitOp(e)
				p = e.payload()
				continue
			}
			o = &begun
		}
		m.mu.Unlock()
		p, err = m.extend(e, p, o)
		return p.mode, p.store, p.offsets, err
	}
}

// readDisk is a disk hit: the leaves a reader scans, decoded as views of
// spill, e's mapping, which the caller pinned e for, and caught up
// privately when the file trails its raw file, into the chain [the views,
// the tail's chunk]: the prefix stays in the mapping, so the chain is
// readable only under the reader's pin. Its one write to the entry
// is reloadNanos, the decode's measured cost. A file that cannot be
// decoded drops the entry: atomic writes and startup cleanup make that an
// OS failure, not a normal path.
func (m *Manager) readDisk(e *Entry, p payload, spill []byte, leaves store.Leaves) (payload, error) {
	start := time.Now()
	st, err := store.ReadParquetView(spill, e.Dataset.Schema(), leaves)
	read := time.Since(start).Nanoseconds()
	m.mu.Lock()
	m.unpinLocked(e)
	if err != nil {
		if m.removeLocked(e) {
			m.stats.spillDrops.Add(1)
		}
		m.mu.Unlock()
		return p, fmt.Errorf("cache: read entry %d: %w", e.ID, err)
	}
	e.reloadNanos = read
	trailing, extendable := e.lag(p)
	m.mu.Unlock()
	p.store = st
	if trailing && extendable {
		return m.extend(e, p, nil)
	}
	return p, nil
}

// evictDiskLocked enforces the disk tier's byte budget. Disk items are
// priced by reload cost: Size is the spill-file size and ScanNanos the
// measured/estimated read cost, so the benefit metric ranks entries by what
// a disk hit still saves per byte of disk budget. Pinned entries are
// skipped; victims are dropped for real.
func (m *Manager) evictDiskLocked() {
	if m.cfg.DiskCacheBytes <= 0 || m.diskTotal <= m.cfg.DiskCacheBytes {
		return
	}
	need := m.diskTotal - m.cfg.DiskCacheBytes
	items := make([]eviction.Item, 0, m.diskEntries)
	for _, e := range m.entries {
		if !e.diskOnly() || e.pins > 0 {
			continue
		}
		it := m.itemFor(e)
		it.Size = e.spillBytes
		it.ScanNanos = m.reloadEstimate(e)
		items = append(items, it)
	}
	for _, id := range m.policy.DiskVictims(items, need) {
		if e, ok := m.entries[id]; ok && e.diskOnly() && m.removeLocked(e) {
			m.stats.spillDrops.Add(1)
		}
	}
}

// EntryTier reports where an entry's payload currently lives ("ram" or
// "disk") with no side effects; EXPLAIN uses it to annotate CachedScan.
func (m *Manager) EntryTier(e *Entry) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.diskOnly() {
		return "disk"
	}
	return "ram"
}
