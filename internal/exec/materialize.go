package exec

import (
	"sync/atomic"
	"time"

	"recache/internal/cache"
	"recache/internal/plan"
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
	// query keeps serving its batches and nothing is admitted.
	admitAbandoned
)

// eagerBuild accumulates the records a materializing miss or a lazy entry's
// upgrade admits as leaf vectors and list lengths: the one
// representation store.FromColumns adopts as either layout. The source's
// typed kernel fills them from record offsets, straight from the raw bytes,
// on a helper goroutine beside the query (see start).
type eagerBuild struct {
	schema  *value.Type
	layout  store.Layout
	vecs    []*store.Vec
	lengths []int32

	src   plan.Source
	epoch uint64

	task *helperTask // the work of the last start, until wait; nil: none
	offs []int64     // the work's copy of its offsets
}

// newEagerBuild starts a build over src in layout for the query of ctx,
// which joins its helper before it returns (RunInto). epoch is the file
// epoch the admitted offsets belong to.
func newEagerBuild(ctx *qctx, src plan.Source, layout store.Layout, epoch uint64) (*eagerBuild, error) {
	b := &eagerBuild{schema: src.Schema(), layout: layout, src: src, epoch: epoch}
	if _, err := value.LeafColumnsCached(b.schema); err != nil {
		return nil, err
	}
	b.vecs = store.NewColumns(b.schema)
	ctx.builds = append(ctx.builds, b)
	return b, nil
}

// start hands out a build step: the records at offs are decoded into vecs —
// the build's vectors at the leaves the query does not decode itself, or
// all of them — and their list lengths appended to b's, beside the query,
// until wait joins the work. A helper goroutine runs it, unless the query
// reaches wait before the helper begins and runs it itself. Until then the
// query touches neither vecs nor b.lengths.
func (b *eagerBuild) start(offs []int64, vecs []*store.Vec) {
	b.offs = append(b.offs[:0], offs...)
	t := &helperTask{done: make(chan error, 1), run: func() (err error) {
		b.lengths, err = b.src.AppendColumns(b.epoch, b.offs, vecs, b.lengths)
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

func (b *eagerBuild) finish() (store.Store, error) {
	return store.FromColumns(b.schema, b.layout, b.vecs, b.lengths)
}

// admission is a materializer's side of §5.2, driven by the miss a chunk
// at a time (missRun.chunk): it notes the offsets of the records
// the select passes, times the build they feed, decides between an eager
// build and a lazy entry after the sampling window by the two-timestamp
// extrapolation, abandons a build that fails on its own side of the
// pipeline, and hands the outcome to the cache when the scan ends — unless
// the file moved under it.
type admission struct {
	spec  *cache.BuildSpec
	state admitState
	b     *eagerBuild // nil once lazy or abandoned

	// The source's file version before the scan: a payload built across a
	// rewrite or an append would match no single file version.
	src     plan.Source
	epoch   uint64
	covered int64

	offsets []int64
	first   int64         // offset of the first admitted record; -1 before it
	to1     time.Duration // t_o1: query time when the first record arrived
	nanos   int64         // caching time: the build's starts, waits and appends
	start   time.Time
}

// newAdmission starts the admission of spec, whose dataset src reads.
func newAdmission(ctx *qctx, spec *cache.BuildSpec, src plan.Source) (*admission, error) {
	a := &admission{spec: spec, src: src, first: -1, start: time.Now()}
	switch {
	case spec.Admission == cache.AlwaysEager || (spec.Admission == cache.Adaptive && spec.WorkingSet):
		a.state = admitEager
	case spec.Admission == cache.AlwaysLazy:
		a.state = admitLazy
	}
	a.epoch, a.covered = src.Version()
	if a.state != admitLazy {
		var err error
		if a.b, err = newEagerBuild(ctx, src, spec.Layout, a.epoch); err != nil {
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
	c := a.nanos
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
	if epoch, covered := a.src.Version(); epoch != a.epoch || covered != a.covered {
		// The file moved under the build: the rows forwarded downstream
		// were each consistent when read, but the payload as a whole
		// matches no single file version. Release the build slot and
		// admit nothing; the next miss rebuilds.
		a.spec.Manager.AbandonBuild(a.spec)
		return
	}
	a.spec.FileEpoch, a.spec.Covered = a.epoch, a.covered
	a.spec.Manager.CompleteBuild(a.spec, st, offsets, mode, t, c)
}
