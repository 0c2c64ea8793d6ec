package exec

import (
	"fmt"
	"slices"
	"time"

	"recache/internal/cache"
	"recache/internal/store"
	"recache/internal/value"
)

// This file is a lazy entry's replay: its satisfying records read from the
// raw file as a miss reads them (miss.go) — a chunk at a time into leaf
// vectors by the source's typed kernel — and served as the scan's batches,
// a flattened scan's expanded by the records' list lengths. Lazy upgrades
// go through Manager.TryStartUpgrade so that N concurrent replays of one
// lazy entry build at most one eager store.

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
		if r.b, err = newEagerBuild(ctx, src, entry.FileEpoch); err != nil {
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
// and served batches batches, or failed with err: the replay's cost is
// attributed to the entry and the upgrade, if it held, commits.
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

// replay opens a lazy entry's replay of offsets, the caller's snapshot of
// the entry's satisfying-record offsets, as the scan's batches. Nothing
// starts before the first Next.
func (s *scanSource) replay(ctx *qctx, offsets []int64) (vecIter, error) {
	cols, err := value.LeafColumnsCached(s.entry.Dataset.Schema())
	if err != nil {
		return nil, err
	}
	leaves, need, err := replayLeaves(cols, s.outNames)
	if err != nil {
		return nil, err
	}
	kinds := make([]value.Kind, len(leaves))
	for i, leaf := range leaves {
		kinds[i] = cols[leaf].Type.Kind
	}
	var r *replay
	next := func() (ch leafVecs, ok bool, err error) {
		if r == nil {
			if r, err = startReplay(ctx, s.entry, cols, need); err != nil {
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
	return newChunkIter(next, end, cols, leaves, kinds, s.cs.Flat, s.filters)
}
