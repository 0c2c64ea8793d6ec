package exec

import (
	"fmt"
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

// lazyReplay streams a lazy entry's satisfying records from the raw file
// (through the positional map), optionally rebuilding an eager store along
// the way and upgrading the entry. offsets is the caller's snapshot of the
// entry's satisfying-record offsets.
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
	schema := entry.Dataset.Schema()
	cols, err := value.LeafColumns(schema)
	if err != nil {
		return err
	}
	colIdx := make(map[string]int, len(cols))
	for i, c := range cols {
		colIdx[c.Name()] = i
	}
	proj := make([]int, len(outNames))
	paths := make([]value.Path, len(outNames))
	needed := make([]value.Path, len(outNames))
	for i, n := range outNames {
		j, ok := colIdx[n]
		if !ok {
			return fmt.Errorf("exec: lazy replay: no column %q", n)
		}
		proj[i] = j
		paths[i] = cols[j].Path
		needed[i] = cols[j].Path
	}

	// An upgrade rebuilds the entry as an eager store (see eagerBuild). The
	// replay still decodes only the query's fields: a typed build decodes
	// the entry's records itself, in one call after the replay, and a record
	// build completes each record as it passes. Either failing — on a field
	// the query never named, say — costs the upgrade, not the query.
	var b *eagerBuild
	if upgrade {
		layout := store.LayoutColumnar
		if deps.Manager != nil {
			layout = deps.Manager.ChooseLayout(entry.Dataset)
		}
		if b, err = newEagerBuild(entry.Dataset, layout, entry.FileEpoch); err != nil {
			return err
		}
	}
	buildTimer := stats.NewSampledTimer(stats.SampleShift, nil)
	down := stats.NewSampledTimer(stats.SampleShift, nil)
	emit := func(row []value.Value) error {
		if down.Begin() {
			err := out(row)
			down.End()
			return err
		}
		return out(row)
	}

	// Replay against the file epoch the offsets were recorded in: a rewrite
	// between the lookup and this scan renumbers every byte offset, and an
	// epoch-checked scan fails fast with plan.ErrEpochChanged (the engine
	// retries the whole query against the reconciled cache) instead of
	// parsing garbage at stale positions.
	scan := entry.Dataset.Provider.ScanOffsets
	if es, ok := entry.Dataset.Provider.(plan.EpochScanner); ok && entry.FileEpoch != 0 {
		scan = func(offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
			return es.ScanOffsetsAt(entry.FileEpoch, offsets, needed, fn)
		}
	}

	buf := make([]value.Value, len(outNames))
	wall0 := time.Now()
	err = scan(offsets, needed,
		func(rec value.Value, off int64, complete func() error) error {
			if b != nil && !b.typed() {
				sampled := buildTimer.Begin()
				if err := b.addRecord(rec.L, complete); err != nil {
					b = nil
				} else if sampled {
					buildTimer.End()
				}
			}
			if cs.Flat {
				for _, flat := range value.FlattenRecord(rec, schema, cols) {
					for i, j := range proj {
						buf[i] = flat[j]
					}
					if !residual(buf) {
						continue
					}
					if err := emit(buf); err != nil {
						return err
					}
				}
				return nil
			}
			for i := range proj {
				buf[i] = value.Get(rec, schema, paths[i])
			}
			if !residual(buf) {
				return nil
			}
			return emit(buf)
		})
	if err != nil {
		return err
	}
	// The replay's own cost excludes downstream operator time and the eager
	// rebuild (charged to CacheBuildNanos below), so the s recorded against
	// this entry is the replay, not the query above it.
	build := buildTimer.EstimatedTotal().Nanoseconds()
	scanNanos := time.Since(wall0).Nanoseconds() - down.EstimatedTotal().Nanoseconds() - build
	if scanNanos < 0 {
		scanNanos = 0
	}
	ctx.stats.CacheScanNanos += scanNanos

	var st store.Store // stays nil when the build fails
	if b != nil {
		t0 := time.Now()
		var berr error
		if b.typed() {
			berr = b.appendOffsets(offsets)
		}
		if berr == nil {
			st, _ = b.finish()
		}
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
