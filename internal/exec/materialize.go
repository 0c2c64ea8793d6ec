package exec

import (
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

// eagerBuild turns the records a materializer (or a lazy entry's upgrade)
// admits into the store of an eager cache entry, by one of two routes chosen
// from the shape of the data, never by configuration:
//
//   - typed: a flat schema headed for the columnar layout, over a provider
//     with a typed kernel (plan.ColumnAppender). The build takes record
//     offsets and the provider decodes those records straight from their
//     bytes into the entry's column vectors.
//   - record: nested schemas (flattening needs the record), a flat schema
//     pinned to the Parquet layout, providers without a kernel. Each record
//     is completed in place and boxed through a store.Builder.
type eagerBuild struct {
	schema *value.Type

	app   plan.ColumnAppender
	epoch uint64
	vecs  []*store.Vec

	builder store.Builder
}

// newEagerBuild starts a build over ds in layout. epoch is the file epoch
// the admitted offsets belong to; 0 (a provider that tracks none) cannot pin
// a typed replay and takes the record route.
func newEagerBuild(ds *plan.Dataset, layout store.Layout, epoch uint64) (*eagerBuild, error) {
	b := &eagerBuild{schema: ds.Schema(), epoch: epoch}
	if app, ok := ds.Provider.(plan.ColumnAppender); ok && epoch != 0 && layout == store.LayoutColumnar {
		if b.vecs = store.NewColumns(b.schema); b.vecs != nil {
			b.app = app
			return b, nil
		}
	}
	var err error
	b.builder, err = store.NewBuilder(layout, b.schema)
	return b, err
}

func (b *eagerBuild) typed() bool { return b.app != nil }

// appendOffsets is the typed route: the records at offsets join the build.
func (b *eagerBuild) appendOffsets(offsets []int64) error {
	return b.app.AppendColumns(b.epoch, offsets, b.vecs)
}

// addRecord is the record route: row is the current record of a scan that
// decoded only the query's fields, complete parses the rest in place.
func (b *eagerBuild) addRecord(row []value.Value, complete func() error) error {
	if err := complete(); err != nil {
		return err
	}
	return b.builder.Add(value.Value{Kind: value.Record, L: row})
}

func (b *eagerBuild) finish() (store.Store, error) {
	if b.typed() {
		return store.FromColumns(b.schema, b.vecs)
	}
	return b.builder.Finish(), nil
}

// compileMaterialize builds the cache-admission operator of §5.2: it sits
// above a select, forwards every satisfying row downstream, and —
// depending on the admission mode — builds an eager binary cache, a lazy
// offsets-only cache, or starts in a sampling state that measures the
// caching overhead on the first records and extrapolates it with the
// two-timestamp scheme before committing to eager or lazy.
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
	prov := spec.Dataset.Provider

	return func(ctx *qctx, out emitFn) error {
		state := admitSampling
		switch {
		case spec.Admission == cache.AlwaysEager || (spec.Admission == cache.Adaptive && spec.WorkingSet):
			state = admitEager
		case spec.Admission == cache.AlwaysLazy:
			state = admitLazy
		}

		// Capture the provider's file version before the scan starts. If the
		// file is rewritten or appended to while this build runs, the payload
		// would mix rows from two file states; the re-check below abandons
		// the admission in that case rather than caching the hybrid.
		var (
			epoch0   uint64
			covered0 int64
		)
		rp, tracked := prov.(plan.RefreshableProvider)
		if tracked {
			epoch0, covered0 = rp.Version()
		}

		var b *eagerBuild
		if state != admitLazy {
			var err error
			if b, err = newEagerBuild(spec.Dataset, spec.Layout, epoch0); err != nil {
				return err
			}
		}

		var (
			offsets     []int64
			flushed     int   // offsets[:flushed] are in the typed build
			cacheNanos  int64 // exactly timed: typed chunks, the record route's sampling window
			cacheTimer  = stats.NewSampledTimer(stats.SampleShift, nil)
			downstream  = stats.NewSampledTimer(stats.SampleShift, nil)
			firstOffset = int64(-1)
			to1         time.Duration
			start       = time.Now()
		)

		// flush decodes the offsets admitted since the last flush into the
		// typed build, between two clock reads.
		flush := func() {
			t0 := time.Now()
			err := b.appendOffsets(offsets[flushed:])
			cacheNanos += time.Since(t0).Nanoseconds()
			flushed = len(offsets)
			if err != nil {
				state, b = admitAbandoned, nil
			}
		}

		decide := func(off int64) {
			// Two-timestamp extrapolation (§5.2): operators earlier in the
			// pipeline (e.g. joins already executed) are part of t_o1, so a
			// cheap-looking sample cannot hide a high eventual overhead.
			to2 := time.Since(ctx.start)
			tc2 := cacheNanos
			var overhead float64
			if spec.Naive {
				// Ablation: sample-local ratio, blind to prior operators
				// and to how much of the file remains.
				if win := float64(to2 - to1); win > 0 {
					overhead = float64(tc2) / win
				}
			} else {
				bytesSeen := off - firstOffset
				if bytesSeen <= 0 {
					bytesSeen = 1
				}
				n := float64(prov.SizeBytes()) / float64(bytesSeen)
				if n < 1 {
					n = 1
				}
				to := float64(to1) + n*float64(to2-to1)
				tc := n * float64(tc2)
				if to > 0 {
					overhead = tc / to
				}
			}
			if overhead > spec.Threshold {
				state = admitLazy
				b = nil // drop the partial eager cache
			} else {
				state = admitEager
			}
		}

		err := child(ctx, func(row []value.Value) error {
			off := ctx.curOffset
			if firstOffset < 0 {
				firstOffset = off
				to1 = time.Since(ctx.start)
			}
			offsets = append(offsets, off)
			switch {
			case b == nil:
				// Lazy or abandoned: the offset above is the whole cost.
			case b.typed():
				// The sampling window is the first chunk, so that the sample
				// the decision extrapolates is timed like every later chunk.
				due := buildChunk
				if state == admitSampling {
					due = spec.SampleSize
				}
				if len(offsets)-flushed >= due {
					flush()
				}
			case state == admitSampling:
				// Precise timing inside the sample window: the paper times
				// the sample itself, then extrapolates.
				t0 := time.Now()
				err := b.addRecord(row, ctx.curComplete)
				cacheNanos += time.Since(t0).Nanoseconds()
				if err != nil {
					state, b = admitAbandoned, nil
				}
			default:
				sampled := cacheTimer.Begin()
				if err := b.addRecord(row, ctx.curComplete); err != nil {
					state, b = admitAbandoned, nil
				} else if sampled {
					cacheTimer.End()
				}
			}
			if state == admitSampling && len(offsets) >= spec.SampleSize {
				decide(off)
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

		if b != nil && b.typed() && flushed < len(offsets) {
			flush()
		}
		// A scan shorter than the sampling window never reached decide():
		// the whole input IS the sample, so decide with what was seen
		// (N ≈ 1). Without this, small inputs silently default to eager.
		if state == admitSampling && len(offsets) > 0 {
			decide(ctx.curOffset)
		}

		wall := time.Since(start)
		c := cacheNanos + cacheTimer.EstimatedTotal().Nanoseconds()
		mode := cache.Lazy
		var st store.Store
		if b != nil {
			fin := time.Now()
			st, err = b.finish()
			c += time.Since(fin).Nanoseconds()
			if err != nil {
				state = admitAbandoned
			}
			mode = cache.Eager
			offsets = nil
		}
		down := downstream.EstimatedTotal().Nanoseconds()
		t := wall.Nanoseconds() - c - down
		if t < 0 {
			t = 0
		}
		ctx.stats.CacheBuildNanos += c
		if state == admitAbandoned {
			spec.Manager.AbandonBuild(spec)
			return nil
		}
		if tracked {
			if epoch1, covered1 := rp.Version(); epoch1 != epoch0 || covered1 != covered0 {
				// The file moved under the build: the rows forwarded
				// downstream were each consistent when read, but the payload
				// as a whole matches no single file version. Release the
				// build slot and admit nothing; the next miss rebuilds.
				spec.Manager.AbandonBuild(spec)
				return nil
			}
			spec.FileEpoch, spec.Covered = epoch0, covered0
		}
		spec.Manager.CompleteBuild(spec, st, offsets, mode, t, c)
		return nil
	}, nil
}
