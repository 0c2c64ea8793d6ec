package exec

import (
	"fmt"
	"slices"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/stats"
	"recache/internal/store"
	"recache/internal/value"
)

// compileCachedScan builds the cache-reuse operator: it reads rows from an
// eager entry's in-memory store (flattened or per-record granularity), or
// replays a lazy entry's offsets through the raw file — upgrading it to an
// eager cache as §5.2 prescribes. Residual predicates (subsumption hits)
// are recompiled against the projected output schema and applied on top.
// Every scan's cost split feeds the layout advisor via Manager.RecordScan.
//
// Concurrency: the entry's mode and payload are snapshotted through
// Manager.Resident at execution time, so the scan keeps reading a consistent
// immutable store even if the entry is concurrently upgraded, converted to
// another layout, or evicted (the query's Txn pin keeps it alive). Resident
// also re-admits a spilled entry from the disk tier — a disk hit costs one
// spill-file read here, never a raw re-scan. Lazy upgrades go through
// Manager.TryStartUpgrade so that N concurrent replays of one lazy entry
// build at most one eager store.
func compileCachedScan(cs *plan.CachedScan, deps Deps) (runFn, error) {
	entry, ok := cs.Entry.(*cache.Entry)
	if !ok || entry == nil {
		return nil, fmt.Errorf("exec: CachedScan without entry")
	}
	outNames := make([]string, len(cs.Out.Fields))
	for i, f := range cs.Out.Fields {
		outNames[i] = f.Name
	}
	residual, err := expr.CompilePredicate(cs.Residual, cs.Out)
	if err != nil {
		return nil, err
	}

	return func(ctx *qctx, out emitFn) error {
		var (
			mode    cache.Mode
			st      store.Store
			offsets []int64
		)
		if deps.Manager != nil {
			var err error
			mode, st, offsets, err = deps.Manager.Resident(entry)
			if err != nil {
				return err
			}
		} else {
			// Manager-less executions (unit harnesses) own the entry
			// outright; everywhere else the snapshot must come from the
			// locked accessor — a concurrent tail extension swaps
			// Store/Offsets under the manager lock.
			mode, st, offsets = entry.Mode, entry.Store, entry.Offsets
		}
		if mode == cache.Lazy {
			return lazyReplay(ctx, cs, entry, offsets, outNames, residual, out)
		}
		idx, err := store.ColumnIndexes(st, outNames)
		if err != nil {
			return err
		}
		// Downstream operator time (joins, aggregation, result collection)
		// runs inside the emit callback; sample it out of the measured wall
		// so the scan time attributed to THIS entry is its own. A query that
		// touches several cached entries (e.g. a join of two hits) would
		// otherwise charge each entry — and CacheScanNanos, once per entry —
		// with the downstream work of everything above it.
		down := stats.NewSampledTimer(stats.SampleShift, nil)
		emit := func(row []value.Value) error {
			if cs.Residual != nil && !residual(row) {
				return nil
			}
			if down.Begin() {
				err := out(row)
				down.End()
				return err
			}
			return out(row)
		}
		wall0 := time.Now()
		var scanStats store.ScanStats
		if cs.Flat {
			scanStats, err = st.ScanFlat(idx, emit)
		} else {
			scanStats, err = st.ScanRecords(idx, emit)
		}
		if err != nil {
			return err
		}
		scanNanos := time.Since(wall0).Nanoseconds() - down.EstimatedTotal().Nanoseconds()
		if scanNanos < 0 {
			scanNanos = 0
		}
		// Report the logical row need r_i: flattened queries need R rows,
		// per-record queries need one row per record — whatever the layout
		// physically iterated.
		if cs.Flat {
			scanStats.RowsScanned = int64(st.NumFlatRows())
		} else {
			scanStats.RowsScanned = int64(st.NumRecords())
		}
		ctx.stats.CacheScanNanos += scanNanos
		if deps.Manager != nil {
			conv := deps.Manager.RecordScan(entry, scanStats, len(idx), scanNanos)
			ctx.stats.LayoutSwitchNanos += conv.Nanoseconds()
		}
		return nil
	}, nil
}

// lazyReplay streams a lazy entry's satisfying records from the raw file as
// rows, optionally rebuilding an eager store along the way and upgrading
// the entry (see replay). offsets is the caller's snapshot of the entry's
// satisfying-record offsets. The records are read as a raw unnest reads
// them (unnest.go): a chunk at a time into leaf vectors by the source's
// typed kernel, and expanded into the scan's rows. A flat entry serves the
// same chunks as batches instead (vecScan.replay), unless vectorization is
// off.
func lazyReplay(ctx *qctx, cs *plan.CachedScan, entry *cache.Entry, offsets []int64,
	outNames []string, residual expr.Predicate, out emitFn) error {

	cols, err := value.LeafColumnsCached(entry.Dataset.Schema())
	if err != nil {
		return err
	}
	leaves, need, err := replayLeaves(cols, outNames)
	if err != nil {
		return err
	}
	slots := make([]int, len(leaves))
	for i := range slots {
		slots[i] = i
	}
	rows := newLeafRows(cols, leaves, slots, len(leaves), cs.Flat, residual)
	r, err := startReplay(ctx, entry, cols, need)
	if err != nil {
		return err
	}
	wall0 := time.Now()
	for lo := 0; lo < len(offsets) && err == nil; lo += store.BatchRows {
		var ch leafVecs
		if ch, err = r.chunk(offsets[lo:min(lo+store.BatchRows, len(offsets))]); err == nil {
			err = rows.emit(ch, out)
		}
	}
	// The replay's own time excludes downstream operator time.
	return r.end(ctx, time.Since(wall0).Nanoseconds()-rows.down.EstimatedTotal().Nanoseconds(), 0, err)
}

// replayLeaves resolves a lazy entry's output columns to leaf columns: the
// leaf of each, and the leaves to decode.
func replayLeaves(cols []value.LeafColumn, outNames []string) (leaves []int, need []bool, err error) {
	leaves, need = make([]int, len(outNames)), make([]bool, len(cols))
	for i, n := range outNames {
		if leaves[i] = slices.IndexFunc(cols, func(c value.LeafColumn) bool { return c.Name() == n }); leaves[i] < 0 {
			return nil, nil, fmt.Errorf("exec: lazy replay: no column %q", n)
		}
		need[leaves[i]] = true
	}
	return leaves, need, nil
}

// replay is one execution's read of a lazy entry's offsets, a chunk at a
// time into leaf vectors. §5.2: ReCache upgrades a reused lazy item to an
// eager cache — the always-lazy baseline (Fig. 12/13) keeps replaying
// offsets — and the upgrade rebuilds the entry as an eager store (see
// eagerBuild) from the same chunks, its helper decoding the leaves the
// query skips. Its failing — on a field the query never named, say — costs
// the upgrade, not the query.
//
// The replay is pinned to the file epoch the offsets were recorded in: a
// rewrite between the lookup and this read renumbers every byte offset, and
// an epoch-checked decode fails fast with plan.ErrEpochChanged (the engine
// retries the whole query against the reconciled cache) instead of parsing
// garbage at stale positions.
type replay struct {
	entry   *cache.Entry
	mgr     *cache.Manager
	upgrade bool
	b       *eagerBuild // nil without an upgrade, or once it failed
	dec     *leafDecoder
	build   int64 // the upgrade's time
}

func startReplay(ctx *qctx, entry *cache.Entry, cols []value.LeafColumn, need []bool) (*replay, error) {
	src, err := source(entry.Dataset)
	if err != nil {
		return nil, err
	}
	m := ctx.deps.Manager
	r := &replay{entry: entry, mgr: m, dec: newLeafDecoder(src, entry.FileEpoch, cols, need),
		upgrade: m != nil && m.Config().Admission == cache.Adaptive && m.TryStartUpgrade(entry)}
	if r.upgrade {
		if r.b, err = newEagerBuild(ctx, src, m.ChooseLayout(entry.Dataset), entry.FileEpoch); err != nil {
			m.CancelUpgrade(entry)
			return nil, err
		}
	}
	return r, nil
}

// chunk decodes the records at offs, the previous chunk's helper joined.
func (r *replay) chunk(offs []int64) (leafVecs, error) {
	r.join()
	ch, build, err := r.dec.decode(offs, r.b)
	r.build += build.Nanoseconds()
	return ch, err
}

// join waits for the upgrade's helper. What the query waited is the
// upgrade's time, and a helper that failed drops the upgrade.
func (r *replay) join() {
	if r.b != nil && r.b.wait(&r.build) != nil {
		r.b = nil
	}
}

// end closes a replay that took own nanoseconds, the upgrade's included,
// and served batches batches (0: rows), or failed with err: the replay's
// cost is attributed to the entry and the upgrade, if it held, commits.
func (r *replay) end(ctx *qctx, own, batches int64, err error) error {
	r.join()
	var st store.Store // stays nil when the build fails
	if err == nil && r.b != nil {
		t0 := time.Now()
		st, _ = r.b.finish()
		r.build += time.Since(t0).Nanoseconds()
	}
	if r.upgrade && st == nil {
		// No upgrade, or one that failed: the entry stays lazy.
		r.mgr.CancelUpgrade(r.entry)
	}
	if err != nil {
		return err
	}
	scanNanos := max(own-r.build, 0)
	ctx.stats.CacheScanNanos += scanNanos
	ctx.stats.CacheBuildNanos += r.build
	if r.mgr == nil {
		return nil
	}
	// Attribute the replay cost to the entry even when it is not upgraded
	// (the always-lazy baseline, or a replay racing another query's upgrade).
	r.mgr.RecordLazyReplay(r.entry, scanNanos, batches)
	if st != nil {
		r.mgr.UpgradeLazy(r.entry, st, r.build, scanNanos)
	}
	return nil
}

// replay opens a flat lazy entry's replay as a batch source: each chunk's
// leaf vectors are the scan's columns. Nothing starts before the first
// Next: a consumer that opens the source and falls back to its row path
// reserves no upgrade.
func (p *vecScan) replay(ctx *qctx, offsets []int64, filters []*expr.VecFilter) (vecIter, bool) {
	cols, err := value.LeafColumnsCached(p.entry.Dataset.Schema())
	if err != nil {
		return nil, false
	}
	leaves, need, err := replayLeaves(cols, p.outNames)
	if err != nil {
		return nil, false
	}
	var r *replay
	next := func() (ch leafVecs, ok bool, err error) {
		if r == nil {
			if r, err = startReplay(ctx, p.entry, cols, need); err != nil {
				return ch, false, err
			}
		}
		if len(offsets) == 0 {
			return ch, false, nil
		}
		n := min(store.BatchRows, len(offsets))
		ch, err = r.chunk(offsets[:n])
		offsets = offsets[n:]
		return ch, err == nil, err
	}
	end := func(own, batches int64, err error) error {
		if r == nil {
			return err
		}
		return r.end(ctx, own, batches, err)
	}
	return newChunkIter(next, end, cols, leaves, append([]*expr.VecFilter{p.filter}, filters...)), true
}
