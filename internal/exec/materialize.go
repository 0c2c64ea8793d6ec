package exec

import (
	"sync/atomic"
	"time"

	"recache/internal/cache"
	"recache/internal/plan"
	"recache/internal/stats"
	"recache/internal/store"
	"recache/internal/value"
)

// admission states of a running materializer.
type admitState uint8

const (
	admitSampling admitState = iota
	admitEager
	admitLazy
	// admitAbandoned: the build failed on its own side of the pipeline; the
	// query keeps streaming its rows and nothing is admitted.
	admitAbandoned
)

// buildChunk is how many admitted records a typed build lets accumulate
// before decoding them into its column vectors: few enough that their bytes
// are still in cache from the scan, enough to amortize the call.
const buildChunk = store.BatchRows

// eagerBuild accumulates the records a materializer, a raw unnest or a lazy
// entry's upgrade admits as leaf vectors and list lengths: the one
// representation store.FromColumns adopts as either layout. A provider with
// a typed kernel (plan.ColumnAppender) fills them from record offsets,
// straight from the raw bytes, on a helper goroutine beside the query (see
// start); the records of any other provider are completed in place and
// striped in (store.Striper). The route follows from the provider, never
// from configuration.
type eagerBuild struct {
	schema  *value.Type
	layout  store.Layout
	vecs    []*store.Vec
	lengths []int32

	app     plan.ColumnAppender // nil: records are striped
	epoch   uint64
	striper *store.Striper

	task *helperTask // the work of the last start, until wait; nil: none
	offs []int64     // the work's copy of its offsets
}

// newEagerBuild starts a build over ds in layout for the query of ctx,
// which joins its helper before it returns (RunInto). epoch is the file
// epoch the admitted offsets belong to; 0 (a provider that tracks none)
// cannot pin a typed replay and takes the record route.
func newEagerBuild(ctx *qctx, ds *plan.Dataset, layout store.Layout, epoch uint64) (*eagerBuild, error) {
	b := &eagerBuild{schema: ds.Schema(), layout: layout, epoch: epoch, app: appender(ds.Provider, epoch)}
	if _, err := value.LeafColumnsCached(b.schema); err != nil {
		return nil, err
	}
	b.vecs = store.NewColumns(b.schema)
	if b.app == nil {
		b.striper, _ = store.NewStriper(b.schema) // fails as LeafColumns does: not here
	}
	ctx.builds = append(ctx.builds, b)
	return b, nil
}

// appender returns prov's typed kernel if it has one a replay can pin to
// epoch.
func appender(prov plan.ScanProvider, epoch uint64) plan.ColumnAppender {
	if app, ok := prov.(plan.ColumnAppender); ok && epoch != 0 {
		return app
	}
	return nil
}

// start is the typed route: the records at offs are decoded into vecs —
// the build's vectors at the leaves the query does not decode itself, or
// all of them — and their list lengths appended to b's, beside the query,
// until wait joins the work. A helper goroutine runs it, unless the query
// reaches wait before the helper begins and runs it itself. Until then the
// query touches neither vecs nor b.lengths.
func (b *eagerBuild) start(offs []int64, vecs []*store.Vec) {
	b.offs = append(b.offs[:0], offs...)
	t := &helperTask{done: make(chan error, 1), run: func() (err error) {
		b.lengths, err = b.app.AppendColumns(b.epoch, b.offs, vecs, b.lengths)
		return err
	}}
	b.task = t
	go func() {
		if t.claimed.CompareAndSwap(false, true) {
			t.done <- t.run()
		}
	}()
}

// helperTask is the work of one start: whoever claims it first runs it.
type helperTask struct {
	claimed atomic.Bool
	done    chan error
	run     func() error
}

// wait joins the work of the last start, if any, and adds how long the
// caller spent on it to *nanos. After an error the build is unusable.
func (b *eagerBuild) wait(nanos *int64) (err error) {
	if t := b.task; t != nil {
		t0 := time.Now()
		if t.claimed.CompareAndSwap(false, true) {
			err = t.run()
		} else {
			err = <-t.done
		}
		b.task = nil
		*nanos += time.Since(t0).Nanoseconds()
	}
	return err
}

// addRecord is the record route: row is the current record of a scan that
// decoded only the query's fields, complete parses the rest in place.
func (b *eagerBuild) addRecord(row []value.Value, complete func() error) error {
	if err := complete(); err != nil {
		return err
	}
	b.lengths = b.striper.Append(value.Value{Kind: value.Record, L: row}, b.vecs, b.lengths)
	return nil
}

func (b *eagerBuild) finish() (store.Store, error) {
	return store.FromColumns(b.schema, b.layout, b.vecs, b.lengths)
}

// admission is a materializer's side of §5.2, driven by the flat
// materializer and the raw unnest alike: it notes the offsets of the records
// the select passes, times the build they feed, decides between an eager
// build and a lazy entry after the sampling window by the two-timestamp
// extrapolation, abandons a build that fails on its own side of the
// pipeline, and hands the outcome to the cache when the scan ends — unless
// the file moved under it.
type admission struct {
	spec  *cache.BuildSpec
	state admitState
	b     *eagerBuild // nil once lazy or abandoned

	// The provider's file version before the scan: a payload built across
	// a rewrite or an append would match no single file version.
	rp      plan.RefreshableProvider
	epoch   uint64
	covered int64

	offsets []int64
	first   int64         // offset of the first admitted record; -1 before it
	to1     time.Duration // t_o1: query time when the first record arrived
	nanos   int64         // caching time timed exactly: the typed build's starts, waits and appends, the sampling window
	timer   *stats.SampledTimer
	start   time.Time
}

func newAdmission(ctx *qctx, spec *cache.BuildSpec) (*admission, error) {
	a := &admission{spec: spec, first: -1, start: time.Now(),
		timer: stats.NewSampledTimer(stats.SampleShift, nil)}
	switch {
	case spec.Admission == cache.AlwaysEager || (spec.Admission == cache.Adaptive && spec.WorkingSet):
		a.state = admitEager
	case spec.Admission == cache.AlwaysLazy:
		a.state = admitLazy
	}
	if rp, ok := spec.Dataset.Provider.(plan.RefreshableProvider); ok {
		a.rp = rp
		a.epoch, a.covered = rp.Version()
	}
	if a.state != admitLazy {
		var err error
		if a.b, err = newEagerBuild(ctx, spec.Dataset, spec.Layout, a.epoch); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (a *admission) sampling() bool { return a.state == admitSampling }

// sampled reports whether the sampling window has just filled: the
// decision is due.
func (a *admission) sampled() bool {
	return a.state == admitSampling && len(a.offsets) >= a.spec.SampleSize
}

// admit notes a record the select passed, at byte offset off.
func (a *admission) admit(ctx *qctx, off int64) {
	if a.first < 0 {
		a.first, a.to1 = off, time.Since(ctx.start)
	}
	a.offsets = append(a.offsets, off)
}

// admitChunk notes a chunk of records the select passed, found from query
// time at on: the first chunk's at is t_o1.
func (a *admission) admitChunk(at time.Duration, offs []int64) {
	if a.first < 0 {
		a.first, a.to1 = offs[0], at
	}
	a.offsets = append(a.offsets, offs...)
}

// abandon drops the build after a failure on its side.
func (a *admission) abandon() { a.state, a.b = admitAbandoned, nil }

// join waits for the build's helper. What the query waited is the build's
// time, and a helper that failed abandons the build.
func (a *admission) join() {
	if a.b != nil && a.b.wait(&a.nanos) != nil {
		a.abandon()
	}
}

// addRecord is the record route's step: timed exactly inside the sampling
// window, sampled after it.
func (a *admission) addRecord(row []value.Value, complete func() error) {
	if a.sampling() {
		t0 := time.Now()
		err := a.b.addRecord(row, complete)
		a.nanos += time.Since(t0).Nanoseconds()
		if err != nil {
			a.abandon()
		}
		return
	}
	sampled := a.timer.Begin()
	if err := a.b.addRecord(row, complete); err != nil {
		a.abandon()
	} else if sampled {
		a.timer.End()
	}
}

// appendOffsets is the typed route's step: the helper decodes the records
// at offsets into the build while the scan goes on, once the previous
// step's is joined.
func (a *admission) appendOffsets(offsets []int64) {
	if a.join(); a.b != nil {
		t0 := time.Now()
		a.b.start(offsets, a.b.vecs)
		a.nanos += time.Since(t0).Nanoseconds()
	}
}

// decide is §5.2's two-timestamp extrapolation, at the record at byte
// offset off: operators earlier in the pipeline (e.g. joins already
// executed) are part of t_o1, so a cheap-looking sample cannot hide a high
// eventual overhead.
func (a *admission) decide(ctx *qctx, off int64) {
	if a.join(); a.state == admitAbandoned { // the sample carries its build's cost
		return // its helper failed: nothing to decide
	}
	to2 := time.Since(ctx.start)
	n := max(float64(a.spec.Dataset.Provider.SizeBytes())/float64(max(off-a.first, 1)), 1)
	to := float64(a.to1) + n*float64(to2-a.to1)
	tc := n * float64(a.nanos)
	if to > 0 && tc/to > a.spec.Threshold {
		a.state, a.b = admitLazy, nil // drop the partial eager cache
	} else {
		a.state = admitEager
	}
}

// finish ends the admission once the scan is done: lastOff is the offset of
// the last record it passed and down the operators above's share of the
// wall time. The build becomes the entry's store, or the offsets a lazy
// entry's payload.
func (a *admission) finish(ctx *qctx, lastOff, down int64) {
	a.join()
	// A scan shorter than the sampling window never reached decide(): the
	// whole input IS the sample, so decide with what was seen (N ≈ 1).
	// Without this, small inputs silently default to eager.
	if a.sampling() && len(a.offsets) > 0 {
		a.decide(ctx, lastOff)
	}
	wall := time.Since(a.start)
	c := a.nanos + a.timer.EstimatedTotal().Nanoseconds()
	mode, offsets := cache.Lazy, a.offsets
	var st store.Store
	if a.b != nil {
		fin := time.Now()
		var err error
		if st, err = a.b.finish(); err != nil {
			a.state = admitAbandoned
		}
		c += time.Since(fin).Nanoseconds()
		mode, offsets = cache.Eager, nil
	}
	t := max(wall.Nanoseconds()-c-down, 0)
	ctx.stats.CacheBuildNanos += c
	if a.state == admitAbandoned {
		a.spec.Manager.AbandonBuild(a.spec)
		return
	}
	if a.rp != nil {
		if epoch, covered := a.rp.Version(); epoch != a.epoch || covered != a.covered {
			// The file moved under the build: the rows forwarded downstream
			// were each consistent when read, but the payload as a whole
			// matches no single file version. Release the build slot and
			// admit nothing; the next miss rebuilds.
			a.spec.Manager.AbandonBuild(a.spec)
			return
		}
		a.spec.FileEpoch, a.spec.Covered = a.epoch, a.covered
	}
	a.spec.Manager.CompleteBuild(a.spec, st, offsets, mode, t, c)
}

// compileMaterialize builds the cache-admission operator of §5.2 over a
// select on a raw scan: it forwards every satisfying row downstream and
// feeds the admission (see admission) — an eager build, a lazy offsets-only
// entry, or a sampling window that measures the caching overhead first.
//
// The scan below parses only the query's needed fields; everything an eager
// entry stores beyond them is decoded by the build (see eagerBuild) and
// charged to caching time. A failure of that decode — a malformed field the
// query never named, a file rewritten under a typed replay — abandons the
// build and leaves the query's answer alone: a cache must not fail a query
// the no-cache engine answers.
func compileMaterialize(m *plan.Materialize, deps Deps) (runFn, error) {
	spec, ok := m.Spec.(*cache.BuildSpec)
	if !ok || spec == nil {
		return compile(m.Child, deps)
	}
	child, err := compile(m.Child, deps)
	if err != nil {
		return nil, err
	}
	return func(ctx *qctx, out emitFn) error {
		a, err := newAdmission(ctx, spec)
		if err != nil {
			return err
		}
		flushed := 0 // a.offsets[:flushed] are in the typed build
		downstream := stats.NewSampledTimer(stats.SampleShift, nil)
		err = child(ctx, func(row []value.Value) error {
			off := ctx.curOffset
			a.admit(ctx, off)
			switch {
			case a.b == nil:
				// Lazy or abandoned: the offset above is the whole cost.
			case a.b.app != nil: // typed
				// The sampling window is the first chunk, so that the sample
				// the decision extrapolates is timed like every later chunk.
				due := buildChunk
				if a.sampling() {
					due = spec.SampleSize
				}
				if len(a.offsets)-flushed >= due {
					a.appendOffsets(a.offsets[flushed:])
					flushed = len(a.offsets)
				}
			default:
				a.addRecord(row, ctx.curComplete)
			}
			if a.sampled() {
				a.decide(ctx, off)
			}
			if downstream.Begin() {
				err := out(row)
				downstream.End()
				return err
			}
			return out(row)
		})
		if err != nil {
			return err
		}
		if a.b != nil && a.b.app != nil && flushed < len(a.offsets) {
			a.appendOffsets(a.offsets[flushed:])
		}
		a.finish(ctx, ctx.curOffset, downstream.EstimatedTotal().Nanoseconds())
		return nil
	}, nil
}
