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
			// §5.2: ReCache upgrades a reused lazy item to an eager cache.
			// The always-lazy baseline (Fig. 12/13) keeps replaying offsets.
			upgrade := deps.Manager != nil &&
				deps.Manager.Config().Admission == cache.Adaptive &&
				deps.Manager.TryStartUpgrade(entry)
			return lazyReplay(ctx, cs, entry, offsets, outNames, residual, out, deps, upgrade)
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

// lazyReplay streams a lazy entry's satisfying records from the raw file,
// optionally rebuilding an eager store along the way and upgrading the
// entry. offsets is the caller's snapshot of the entry's satisfying-record
// offsets. The records are read as a raw unnest reads them (unnest.go): a
// chunk at a time into leaf vectors — by the provider's typed kernel, or
// striped from its decoded records — and expanded into the scan's rows.
func lazyReplay(ctx *qctx, cs *plan.CachedScan, entry *cache.Entry, offsets []int64,
	outNames []string, residual expr.Predicate, out emitFn, deps Deps, upgrade bool) (err error) {

	upgraded := false
	if upgrade {
		defer func() {
			if !upgraded {
				deps.Manager.CancelUpgrade(entry)
			}
		}()
	}
	ds := entry.Dataset
	cols, err := value.LeafColumnsCached(ds.Schema())
	if err != nil {
		return err
	}
	proj := make([]int, len(outNames))
	slots := make([]int, len(outNames))
	need := make([]bool, len(cols))
	for i, n := range outNames {
		proj[i], slots[i] = slices.IndexFunc(cols, func(c value.LeafColumn) bool { return c.Name() == n }), i
		if proj[i] < 0 {
			return fmt.Errorf("exec: lazy replay: no column %q", n)
		}
		need[proj[i]] = true
	}
	rows := newLeafRows(cols, proj, slots, len(proj), cs.Flat, residual)

	// An upgrade rebuilds the entry as an eager store (see eagerBuild) from
	// the same chunks: a typed build decodes every leaf of them, a record
	// build completes each record as it passes. Either failing — on a field
	// the query never named, say — costs the upgrade, not the query.
	var b *eagerBuild
	if upgrade {
		layout := store.LayoutColumnar
		if deps.Manager != nil {
			layout = deps.Manager.ChooseLayout(ds)
		}
		if b, err = newEagerBuild(ds, layout, entry.FileEpoch); err != nil {
			return err
		}
	}

	// Replay against the file epoch the offsets were recorded in: a rewrite
	// between the lookup and this scan renumbers every byte offset, and an
	// epoch-checked decode fails fast with plan.ErrEpochChanged (the engine
	// retries the whole query against the reconciled cache) instead of
	// parsing garbage at stale positions.
	var build int64
	wall0 := time.Now()
	if app := appender(ds.Provider, entry.FileEpoch); app != nil {
		dec := newLeafDecoder(app, entry.FileEpoch, cols, need)
		for lo := 0; lo < len(offsets); lo += store.BatchRows {
			ch, c, berr, err := dec.decode(offsets[lo:min(lo+store.BatchRows, len(offsets))], b)
			if err != nil {
				return err
			}
			if build += c.Nanoseconds(); berr != nil {
				b = nil
			}
			if err := rows.emit(ch, out); err != nil {
				return err
			}
		}
	} else if b, build, err = replayRecords(ds, entry.FileEpoch, offsets, cols, need, rows, out, b); err != nil {
		return err
	}
	// The replay's own cost excludes downstream operator time and the eager
	// rebuild (charged to CacheBuildNanos below), so the s recorded against
	// this entry is the replay, not the query above it.
	scanNanos := max(time.Since(wall0).Nanoseconds()-rows.down.EstimatedTotal().Nanoseconds()-build, 0)
	ctx.stats.CacheScanNanos += scanNanos

	var st store.Store // stays nil when the build fails
	if b != nil {
		t0 := time.Now()
		st, _ = b.finish()
		build += time.Since(t0).Nanoseconds()
	}
	ctx.stats.CacheBuildNanos += build
	if st == nil {
		// No upgrade, or one that failed (the deferred CancelUpgrade leaves
		// the entry lazy): still attribute the replay cost to the entry
		// (before this, a lazy entry reused without an upgrade — the
		// always-lazy baseline, or a replay racing another query's upgrade
		// — never updated its per-entry scan time).
		if deps.Manager != nil {
			deps.Manager.RecordLazyReplay(entry, scanNanos)
		}
		return nil
	}
	deps.Manager.UpgradeLazy(entry, st, build, scanNanos)
	upgraded = true
	return nil
}

// replayRecords is lazyReplay's route for a provider without a typed
// kernel: the provider decodes the records at offsets — pinned to epoch
// when it can be — and their needed leaves are striped a chunk at a time;
// an upgrade's build b completes and stripes every record, its time
// sampled. It returns b, nil once it failed, and its estimated time.
func replayRecords(ds *plan.Dataset, epoch uint64, offsets []int64, cols []value.LeafColumn, need []bool,
	rows *leafRows, out emitFn, b *eagerBuild) (*eagerBuild, int64, error) {

	needed := []value.Path{} // nil would read every field
	for i, c := range cols {
		if need[i] {
			needed = append(needed, c.Path)
		}
	}
	if rows.flat {
		needed = append(needed, value.RepeatedFieldCached(ds.Schema()))
	}
	scan := ds.Provider.ScanOffsets
	if es, ok := ds.Provider.(plan.EpochScanner); ok && epoch != 0 {
		scan = func(offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
			return es.ScanOffsetsAt(epoch, offsets, needed, fn)
		}
	}
	striper, err := store.NewStriper(ds.Schema())
	if err != nil {
		return nil, 0, err
	}
	own := newLeafVecs(cols, need)
	timer := stats.NewSampledTimer(stats.SampleShift, nil)
	err = scan(offsets, needed, func(rec value.Value, _ int64, complete func() error) error {
		if b != nil {
			sampled := timer.Begin()
			if err := b.addRecord(rec.L, complete); err != nil {
				b = nil
			} else if sampled {
				timer.End()
			}
		}
		if own.stripe(striper, rec.L); own.n < store.BatchRows {
			return nil
		}
		err := rows.emit(own.chunk(), out)
		own.reset()
		return err
	})
	if err == nil && own.n > 0 {
		err = rows.emit(own.chunk(), out)
	}
	return b, timer.EstimatedTotal().Nanoseconds(), err
}
