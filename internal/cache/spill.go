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
// of reloading it from disk, the victim is demoted instead of discarded:
// its payload, the Parquet form, is serialized as it is to a file in
// Config.SpillDir, while the entry itself — predicate, ranges, accounting,
// R-tree membership — stays in RAM, so lookups keep matching it. A hit on
// a spilled entry re-admits the payload, single-flight, then runs the normal
// pipeline: one read of the file into a fresh buffer, which becomes the
// payload. The RCS stream is the little-endian image of the payload's
// vectors, so the re-admitted store's vectors are views of that buffer, and
// a disk hit costs a file read and a validation pass — never a raw re-scan,
// nor a decode into new vectors. A payload that trails its raw file catches
// up afterwards, as one that never left RAM does (Resident).
//
// Entry payloads are immutable once built, so a spill file is write-once:
// re-admission keeps the file, and while it exists the entry's later
// demotions are free (drop the RAM pointer, no serialization or IO). Under
// disk pressure these redundant copies are reclaimed before any disk-only
// entry is dropped for real.
//
// Serialization and file reads/writes are the unlocked halves of the
// opSpilling / opLoading operations (lifecycle.go); only cheap unlinks
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

// reloadEstimate prices a disk re-admission in nanoseconds: the measured
// reload cost when one exists, otherwise a sequential read bandwidth model
// (2 GB/s) plus a fixed open/validate overhead. A page-cached 805 KB
// lineitem-shaped spill file re-admits in ~0.24 ms on a 2-vCPU box
// (BenchmarkSpillReload, median of 8 runs: the read into a fresh buffer and
// the validation pass; the store's vectors are views of the buffer), where
// the model says ~0.42 ms. That is within 2×, and the model stays as it is
// because it decides which victims spill, and one disk hit replaces it with
// the entry's own number.
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
// lock, and a commit may queue further work (disk eviction never does, but
// a re-admission's evictLocked can), hence the loop. A pinned victim keeps
// its RAM copy until the last unpin: entries are never spilled out from
// under a scan.
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

// readSpill reads a whole spill file into a buffer of its own, sized from
// its Stat: one read, no growth. The buffer becomes the re-admitted store's
// memory (store.ReadParquetOwned), so it is never reused.
func readSpill(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Resident returns a payload of e that a reader can scan: in RAM, and
// current with e's raw file as its provider last ingested it. This is the
// one place an entry catches up, and it does so for the reader that needs
// it: a payload in the disk tier is re-admitted (one spill-file read, never a
// raw re-scan), and a payload in RAM — also one just re-admitted — that
// trails the file within its epoch is extended over the appended tail and
// committed back to the entry. Both are single-flight per entry — a
// second reader waits for the operation in flight and reads what it
// committed. A reader whose entry died or was
// demoted again under it keeps the payload it has and catches that up
// privately. An extension that fails drops the entry and returns
// plan.ErrEpochChanged: the caller re-plans against the miss.
// Side-effect-free readers (EXPLAIN, tooling) use Payload instead.
func (m *Manager) Resident(e *Entry) (Mode, store.Store, []int64, error) {
	m.mu.Lock()
	p := e.payload()
	for {
		op := opIdle
		if p.mode == Eager && p.store == nil {
			op = opLoading
		} else if trailing, extendable := e.lag(p); trailing && extendable {
			op = opExtending
		}
		if op == opIdle {
			m.mu.Unlock()
			return p.mode, p.store, p.offsets, nil
		}
		var o *inflight // nil: p is this reader's own by now, nothing to commit
		switch {
		case !e.dead && e.holds(p):
			begun, ok := m.begin(e, op)
			if !ok {
				m.awaitOp(e)
				p = e.payload()
				continue
			}
			o = &begun
		case op == opLoading:
			// Dropped with its spill file (a failed load, or a removal) while
			// this reader was on its way to the payload.
			m.mu.Unlock()
			return p.mode, nil, nil, fmt.Errorf("cache: entry %d lost its spilled payload", e.ID)
		}
		path := e.spillPath
		m.mu.Unlock()
		var err error
		if op == opExtending {
			p, err = m.extend(e, p, o)
			return p.mode, p.store, p.offsets, err
		}
		if p, err = m.load(*o, path); err != nil {
			return p.mode, nil, nil, err
		}
		m.mu.Lock()
	}
}

// load is the unlocked half of a re-admission and its commit: one
// spill-file read into a fresh buffer, which the payload then is — its
// vectors are views of the file's bytes, not a decode of them. The file is
// retained (entry payloads are immutable once built), so it stays valid and
// the entry's next demotion is free; it keeps occupying the disk budget
// until the entry is removed, its payload is replaced, or the disk tier
// reclaims redundant copies under pressure. The returned payload is the
// caller's to scan even if the commit's eviction round demoted the entry
// again, or the entry died mid-load.
func (m *Manager) load(o inflight, path string) (payload, error) {
	e, res := o.e, result{payload: o.snap}
	start := time.Now()
	buf, err := readSpill(path)
	if res.err = err; err == nil {
		res.store, res.err = store.ReadParquetOwned(buf, e.Dataset.Schema())
	}
	reload := time.Since(start).Nanoseconds()
	res.account = func() { e.reloadNanos = reload }
	m.mu.Lock()
	m.commit(o, res)
	if res.err != nil && m.removeLocked(e) {
		// Unreadable spill file: the entry is gone for real. (Atomic writes
		// and startup cleanup make this an OS-failure path, not a normal one.)
		m.stats.spillDrops.Add(1)
	}
	m.mu.Unlock()
	if res.err != nil {
		return res.payload, fmt.Errorf("cache: reload entry %d: %w", e.ID, res.err)
	}
	m.drainSpills()
	return res.payload, nil
}

// evictDiskLocked enforces the disk tier's byte budget. Disk items are
// priced by reload cost: Size is the spill-file size and ScanNanos the
// measured/estimated deserialization cost, so the benefit metric ranks
// entries by what a disk hit still saves per byte of disk budget. Pinned
// and mid-load entries are skipped; victims are dropped for real.
func (m *Manager) evictDiskLocked() {
	if m.cfg.DiskCacheBytes <= 0 || m.diskTotal <= m.cfg.DiskCacheBytes {
		return
	}
	// Reclaim redundant copies first: a resident entry's kept spill file
	// only buys a free future demotion, so dropping it loses no data —
	// strictly cheaper than dropping a disk-only entry for real.
	for _, e := range m.entries {
		if m.diskTotal <= m.cfg.DiskCacheBytes {
			return
		}
		if e.keptSpillFile() {
			m.releaseSpillFile(e)
		}
	}
	need := m.diskTotal - m.cfg.DiskCacheBytes
	items := make([]eviction.Item, 0, m.diskEntries)
	for _, e := range m.entries {
		if !e.diskOnly() || e.op != opIdle || e.pins > 0 {
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
