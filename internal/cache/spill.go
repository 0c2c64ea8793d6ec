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
	"recache/internal/value"
)

// The disk spill tier. When RAM eviction selects a victim whose
// reconstruction cost (raw scan + build, t+c) exceeds the estimated cost
// of reading it back from disk, the victim is demoted instead of discarded:
// its payload, the Parquet form, is written as it is to a file in
// Config.SpillDir, while the entry itself — predicate, ranges, accounting,
// R-tree membership — stays in RAM, so lookups keep matching it. The entry
// then is its file. A hit on it reads only the leaves its scan projects:
// the RCS stream's column directory (store/serial.go) turns a disk hit into
// one header read plus one read per needed column, into a buffer the
// reader owns and whose views its store's vectors are. Nothing is
// re-admitted, committed, charged to RAM or evicted on a read, so an entry
// leaves the disk tier only when it is removed; one that turns hot again is
// served from disk until a build evicts what RAM holds.
//
// Serialization and the file write are the unlocked half of the opSpilling
// operation (lifecycle.go); only cheap unlinks happen under the lock, so a
// spill file's lifetime stays in step with the entry state it mirrors.

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
// measured read when one exists, otherwise a sequential read bandwidth
// model (2 GB/s) over the whole file plus a fixed open/validate overhead.
// A page-cached 805 KB lineitem-shaped spill file reads whole in ~0.29 ms
// on a 2-vCPU box, and two of its nine leaves in ~0.07 ms
// (BenchmarkSpillReload, medians of 8 runs), where the model says
// ~0.42 ms. The model stays as it is: it decides which victims spill, it is
// within 2× of a whole read and overstates a projected one, and one disk
// hit replaces it with the entry's own number.
func (m *Manager) reloadEstimate(e *Entry) int64 {
	if e.reloadNanos > 0 {
		return e.reloadNanos
	}
	sz := e.spillBytes
	if sz == 0 {
		sz = e.SizeBytes()
	}
	return sz/2 + 20_000
}

// FlushSpills completes every queued RAM→disk demotion synchronously. A
// shutting-down engine calls it after the last query drains so no evicted
// payload is lost between "queued for spill" and process exit.
func (m *Manager) FlushSpills() { m.drainSpills() }

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
			res.spillBytes, res.err = atomicWrite(res.spillPath, func(w io.Writer) error {
				return store.WriteParquet(w, o.snap.store)
			})
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
// and the sync would dominate the demotion cost. Returns the file size.
func atomicWrite(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, err
	}
	var size int64
	err = write(f)
	if err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			size = fi.Size()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	return size, nil
}

// readSpillFile decodes leaves of the payload in the spill file at path,
// size bytes long, into a store of the reader's own: the header, then the
// sections of those leaves (store.ReadParquetOwned).
func readSpillFile(path string, size int64, schema *value.Type, leaves store.Leaves) (store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ReadParquetOwned(f, size, schema, leaves)
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
//   - A payload in the disk tier is read from its file, those leaves only,
//     into a store that is the reader's alone — never a raw re-scan, and
//     nothing is committed, charged or evicted: the entry stays on disk. A
//     file that trails its raw file is caught up the same private way.
//
// An extension that fails drops the entry and returns plan.ErrEpochChanged:
// the caller re-plans against the miss; a spill file that cannot be read
// drops the entry too. Side-effect-free readers (EXPLAIN, tooling) use
// Payload instead.
func (m *Manager) Resident(e *Entry, leaves store.Leaves) (Mode, store.Store, []int64, error) {
	m.mu.Lock()
	p := e.payload()
	for {
		var err error
		if p.mode == Eager && p.store == nil {
			path, size := e.spillPath, e.spillBytes
			m.mu.Unlock()
			p, err = m.readDisk(e, p, path, size, leaves)
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

// readDisk is a disk hit: the leaves a reader scans, read from e's spill
// file at path into a store of the reader's own, and caught up privately
// when the file trails its raw file. Its one write to the entry is
// reloadNanos, the read's measured cost. A file that cannot be read drops
// the entry: atomic writes and startup cleanup make that an OS failure, not
// a normal path.
func (m *Manager) readDisk(e *Entry, p payload, path string, size int64, leaves store.Leaves) (payload, error) {
	if path == "" {
		// The entry died, and its file went with its last pin: a reader
		// that held no pin.
		return p, fmt.Errorf("cache: entry %d lost its spilled payload", e.ID)
	}
	start := time.Now()
	st, err := readSpillFile(path, size, e.Dataset.Schema(), leaves)
	read := time.Since(start).Nanoseconds()
	m.mu.Lock()
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
