package exec

import (
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// This file is the miss path of a raw select over a provider with a typed
// kernel (plan.ColumnAppender): the provider's pushdown cursor hands out the
// offsets of the records that pass, a chunk at a time, and each chunk is
// decoded into the query's own leaf vectors — while a materializer's eager
// build rides along, its helper decodes the other leaves beside the query
// (leafDecoder). A flat select serves those chunks as batches (missSource);
// an Unnest expands them into rows (unnest.go). A provider without the
// kernel keeps the row route of compileSelect and compileMaterialize.

// missPlan is the compile-time half of a typed miss: [Materialize →]
// Select → Scan. The cursor runs the pushable conjuncts below parsing; a
// residual (with pushdown off, the whole predicate) is tested on the
// records it passes, decoded boxed, before anything else about them is.
type missPlan struct {
	ds        *plan.Dataset
	app       plan.ColumnAppender
	rp        plan.RefreshableProvider
	es        plan.EpochScanner
	spec      *cache.BuildSpec // nil: no materializer
	pd        *expr.Pushdown   // nil: the cursor passes every record
	residual  expr.Predicate   // nil: the cursor runs the whole predicate
	resNeeded []value.Path
	cols      []value.LeafColumn
	need      []bool // the leaves the query reads
}

// rawSelect unwraps [Materialize →] Select → Scan.
func rawSelect(n plan.Node) (spec *cache.BuildSpec, sel *plan.Select, scan *plan.Scan, ok bool) {
	if m, isM := n.(*plan.Materialize); isM {
		spec, _ = m.Spec.(*cache.BuildSpec)
		n = m.Child
	}
	if sel, ok = n.(*plan.Select); ok {
		scan, ok = sel.Child.(*plan.Scan)
	}
	return spec, sel, scan, ok
}

// planMiss plans the typed miss of a raw select; ok is false when its
// provider has no typed kernel.
func planMiss(spec *cache.BuildSpec, sel *plan.Select, scan *plan.Scan, deps Deps) (*missPlan, bool, error) {
	prov := scan.DS.Provider
	app, ok := prov.(plan.ColumnAppender)
	rp, tracked := prov.(plan.RefreshableProvider)
	es, pinned := prov.(plan.EpochScanner)
	if !ok || !tracked || !pinned {
		return nil, false, nil
	}
	cols, err := value.LeafColumnsCached(scan.DS.Schema())
	if err != nil {
		return nil, false, err
	}
	p := &missPlan{ds: scan.DS, app: app, rp: rp, es: es, spec: spec, cols: cols,
		need: neededLeaves(cols, scanNeeded(scan, deps))}
	residual := sel.Pred
	if !deps.DisablePushdown {
		p.pd, residual = expr.ExtractPushdown(sel.Pred, scan.DS.Schema())
	}
	if residual != nil {
		if p.residual, err = expr.CompilePredicate(residual, scan.OutSchema()); err != nil {
			return nil, false, err
		}
		p.resNeeded = expr.Columns(residual)
	}
	return p, true, nil
}

// missRun is one execution of a typed miss.
type missRun struct {
	p       *missPlan
	a       *admission // nil without a materializer
	epoch   uint64
	cursor  plan.OffsetCursor
	dec     *leafDecoder
	offs    []int64
	skipped int64
	last    int64 // the offset of the last record passed
	nanos   int64 // the time spent in chunk
}

// start opens the cursor, pinned to the file epoch the admission read (or
// the current one): a rewrite fails the query with plan.ErrEpochChanged,
// which the engine retries.
func (p *missPlan) start(ctx *qctx) (*missRun, error) {
	r := &missRun{p: p}
	if p.spec != nil {
		var err error
		if r.a, err = newAdmission(ctx, p.spec); err != nil {
			return nil, err
		}
		r.epoch = r.a.epoch
	} else {
		r.epoch, _ = p.rp.Version()
	}
	var err error
	if r.cursor, err = p.app.PushdownCursor(r.epoch, p.pd); err != nil {
		return nil, err
	}
	r.dec = newLeafDecoder(p.app, r.epoch, p.cols, p.need)
	return r, nil
}

// chunk decodes the next chunk of passing records; ok is false once the
// scan is done. A chunk's build helper (see leafDecoder) runs beside the
// query until the next chunk's decode joins it; the build is charged the
// start, the wait and the appends, and a failure on its side abandons it.
// One on the query's side fails the query. The sampling window is the first
// chunk, so the sample the admission decision extrapolates is timed like
// every later chunk, from the cursor's first step on.
func (r *missRun) chunk(ctx *qctx) (ch leafVecs, ok bool, err error) {
	t0 := time.Now()
	defer func() { r.nanos += time.Since(t0).Nanoseconds() }()
	a := r.a
	n := store.BatchRows
	if a != nil && a.sampling() {
		n = max(1, min(n, a.spec.SampleSize-len(a.offsets)))
	}
	for len(r.offs) == 0 {
		if r.offs, r.skipped, err = r.cursor(r.offs[:0], n); err != nil || len(r.offs) == 0 {
			return ch, false, err
		}
		if r.p.residual != nil {
			if r.offs, err = r.filter(r.offs); err != nil {
				return ch, false, err
			}
		}
	}
	var b *eagerBuild
	if a != nil {
		a.admitChunk(t0.Sub(ctx.start), r.offs)
		a.join()
		b = a.b
	}
	ch, build, err := r.dec.decode(r.offs, b)
	if b != nil {
		a.nanos += build.Nanoseconds()
	}
	if err != nil {
		return ch, false, err
	}
	r.last, r.offs = r.offs[len(r.offs)-1], r.offs[:0]
	if a != nil && a.sampled() {
		a.decide(ctx, r.last)
	}
	return ch, true, nil
}

// filter keeps the offsets whose records pass the residual.
func (r *missRun) filter(offs []int64) ([]int64, error) {
	kept := offs[:0] // written behind the reads of offs
	err := r.p.es.ScanOffsetsAt(r.epoch, offs, r.p.resNeeded, func(rec value.Value, off int64, _ func() error) error {
		if r.p.residual(rec.L) {
			kept = append(kept, off)
		}
		return nil
	})
	return kept, err
}

// finish ends a miss whose scan is done: the pushdown is noted, and the
// admission hands its outcome to the cache with the time spent outside
// chunk as the operators above's.
func (r *missRun) finish(ctx *qctx) {
	if r.p.pd != nil && ctx.deps.Manager != nil {
		ctx.deps.Manager.NotePushdown(r.p.pd.NumConjuncts(), r.skipped)
	}
	if a := r.a; a != nil {
		a.finish(ctx, r.last, max(time.Since(a.start).Nanoseconds()-r.nanos, 0))
	}
}

// flatLeaves reports whether every leaf column is a top-level scalar field:
// leaf i is then row slot i.
func flatLeaves(cols []value.LeafColumn) bool {
	for _, c := range cols {
		if len(c.Path) != 1 || c.Repeated {
			return false
		}
	}
	return true
}

// flatMiss resolves n — [Materialize →] Select → Scan over a flat dataset
// and a typed kernel — to the batch source of its miss.
func flatMiss(n plan.Node, deps Deps) (*missSource, bool, error) {
	spec, sel, scan, ok := rawSelect(n)
	if !ok {
		return nil, false, nil
	}
	p, ok, err := planMiss(spec, sel, scan, deps)
	if !ok || !flatLeaves(p.cols) {
		return nil, false, err
	}
	return &missSource{p: p}, true, nil
}

// missSource serves a flat miss as batches: a chunk's leaf vectors are the
// select's columns, and the columns the query does not read are nulls.
type missSource struct {
	p       *missPlan
	filters []*expr.VecFilter // Selects above the raw select
}

// open starts nothing: the scan begins at the first Next, so a consumer
// that opens the source and falls back to its row path reads no file.
func (s *missSource) open(ctx *qctx) (vecIter, bool) {
	var r *missRun
	next := func() (ch leafVecs, ok bool, err error) {
		if r == nil {
			if r, err = s.p.start(ctx); err != nil {
				return ch, false, err
			}
		}
		return r.chunk(ctx)
	}
	end := func(_, _ int64, err error) error {
		if err == nil && r != nil {
			r.finish(ctx)
		}
		return err
	}
	leaves := make([]int, len(s.p.cols))
	for i := range leaves {
		leaves[i] = i
	}
	return newChunkIter(next, end, s.p.cols, leaves, s.filters), true
}

// info counts the batches of a scan of every record known so far, without
// reading the file.
func (s *missSource) info(Deps) (int64, bool) {
	return (max(int64(s.p.ds.Provider.NumRecords()), 0) + store.BatchRows - 1) / store.BatchRows, true
}

// chunkIter serves the chunks a typed miss or a lazy replay decodes as
// batches: column i is leaf leaves[i] of each chunk — nulls when the chunk
// did not decode it — and the selection is the chunk's records that pass
// the filters. next yields the chunks; end closes the read, which took
// own nanoseconds and served batches batches, or failed with err.
type chunkIter struct {
	next    func() (leafVecs, bool, error)
	end     func(own, batches int64, err error) error
	leaves  []int
	kinds   []value.Kind
	filters []*expr.VecFilter
	cols    []*store.Vec
	sel     []int32
	err     error
	batches int64
	nanos   int64
}

func newChunkIter(next func() (leafVecs, bool, error), end func(own, batches int64, err error) error,
	cols []value.LeafColumn, leaves []int, filters []*expr.VecFilter) *chunkIter {
	it := &chunkIter{next: next, end: end, leaves: leaves, filters: filters,
		kinds: make([]value.Kind, len(leaves)), cols: make([]*store.Vec, len(leaves)), sel: make([]int32, store.BatchRows)}
	for i, leaf := range leaves {
		it.kinds[i] = cols[leaf].Type.Kind
	}
	return it
}

func (it *chunkIter) Kinds() []value.Kind   { return it.kinds }
func (it *chunkIter) Stable() bool          { return false }
func (it *chunkIter) Cols() []*store.Vec    { return nil }
func (it *chunkIter) addScanNanos(n int64)  { it.nanos += n }
func (it *chunkIter) Close(ctx *qctx) error { return it.end(it.nanos, it.batches, it.err) }

func (it *chunkIter) Next() ([]*store.Vec, []int32, bool) {
	t0 := time.Now()
	if it.err != nil {
		return nil, nil, false
	}
	ch, ok, err := it.next()
	if !ok {
		it.err = err
		return nil, nil, false
	}
	for i, leaf := range it.leaves {
		if it.cols[i] = ch.vecs[leaf]; it.cols[i] == nil {
			it.cols[i] = nullVecs[it.kinds[i]]
		}
	}
	sel := it.sel[:ch.n]
	for k := range sel {
		sel[k] = int32(k)
	}
	for _, f := range it.filters {
		sel = f.Apply(it.cols, sel)
	}
	it.batches++
	it.nanos += time.Since(t0).Nanoseconds()
	return it.cols, sel, true
}

// nullVecs hold store.BatchRows nulls of each scalar kind: the columns of a
// miss's batch that the query does not read. They are never written.
var nullVecs = func() (vs [value.String + 1]*store.Vec) {
	for k := value.Bool; k <= value.String; k++ {
		v := store.NewVec(k)
		for range store.BatchRows {
			v.AppendVal(value.VNull)
		}
		vs[k] = v
	}
	return vs
}()
