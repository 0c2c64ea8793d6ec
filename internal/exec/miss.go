package exec

import (
	"fmt"
	"slices"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// This file is the miss path of a raw select: the source's pushdown cursor
// hands out the offsets of the records that pass, a chunk at a time, and
// each chunk is decoded into the query's own leaf vectors — while a
// materializer's eager build rides along, its helper decodes the other
// leaves beside the query (leafDecoder). The select serves those chunks as
// batches (missSource): a record per row, its top-level fields the columns,
// or — under an Unnest — the records' flattened rows, expanded by their
// list lengths (chunkIter).

// source is the one place a dataset's provider is resolved: every raw read
// of the engine goes through a plan.Source, and a provider short of one is
// an error, never a fallback.
func source(ds *plan.Dataset) (plan.Source, error) {
	src, ok := ds.Provider.(plan.Source)
	if !ok {
		return nil, fmt.Errorf("exec: dataset %q: provider %T is not a plan.Source", ds.Name, ds.Provider)
	}
	return src, nil
}

// missPlan is the compile-time half of a miss: [Materialize →] Select →
// Scan, with an Unnest above it when expand. The cursor runs the pushable
// conjuncts below parsing; a residual (with pushdown off, the whole
// predicate) is tested on the records it passes, decoded boxed, before
// anything else about them is.
//
// A record's batch columns are its top-level fields: a scalar field is its
// leaf's vector; a sub-record or a list is boxed, decoded whole by the
// format's record decoder (ScanOffsetsAt) when a needed path falls under
// it, and nulls otherwise. An expanded batch's columns are the leaves.
type missPlan struct {
	src      plan.Source
	spec     *cache.BuildSpec // nil: no materializer
	pd       *expr.Pushdown   // nil: the cursor passes every record
	residual *plan.Residual   // nil: the cursor runs the whole predicate
	cols     []value.LeafColumn
	need     []bool // the leaves the query reads
	expand   bool
	leaves   []int        // per batch column: its leaf, or -1 for a boxed field
	kinds    []value.Kind // per batch column
	boxed    []value.Path // the boxed fields the query reads
	boxCols  []int        // their batch columns
}

// rawSelect unwraps [Materialize →] [Select →] Scan.
func rawSelect(n plan.Node) (spec *cache.BuildSpec, pred expr.Expr, scan *plan.Scan, ok bool) {
	if m, isM := n.(*plan.Materialize); isM {
		spec, _ = m.Spec.(*cache.BuildSpec)
		n = m.Child
	}
	if sel, isSel := n.(*plan.Select); isSel {
		pred, n = sel.Pred, sel.Child
	}
	scan, ok = n.(*plan.Scan)
	return spec, pred, scan, ok
}

// planMiss plans the miss of a raw select.
func planMiss(spec *cache.BuildSpec, pred expr.Expr, scan *plan.Scan, deps Deps, expand bool) (*missSource, error) {
	src, err := source(scan.DS)
	if err != nil {
		return nil, err
	}
	schema := scan.DS.Schema()
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return nil, err
	}
	needed := scanNeeded(scan, deps)
	p := &missPlan{src: src, spec: spec, cols: cols, need: neededLeaves(cols, needed), expand: expand}
	if expand {
		for i, c := range cols {
			p.leaves, p.kinds = append(p.leaves, i), append(p.kinds, c.Type.Kind)
		}
	} else {
		top := make([]bool, len(cols))
		for _, f := range schema.Fields {
			leaf := slices.IndexFunc(cols, func(c value.LeafColumn) bool {
				return len(c.Path) == 1 && c.Path[0] == f.Name && !c.Repeated
			})
			p.leaves, p.kinds = append(p.leaves, leaf), append(p.kinds, f.Type.Kind)
			if leaf >= 0 {
				top[leaf] = true
			} else if needed == nil || slices.ContainsFunc(needed, func(n value.Path) bool { return n[0] == f.Name }) {
				p.boxed, p.boxCols = append(p.boxed, value.Path{f.Name}), append(p.boxCols, len(p.leaves)-1)
			}
		}
		for i := range p.need { // a boxed field is decoded whole, not by its leaves
			p.need[i] = p.need[i] && top[i]
		}
	}
	if p.pd, p.residual, err = plan.SplitPredicate(pred, schema, !deps.DisablePushdown); err != nil {
		return nil, err
	}
	return &missSource{p: p}, nil
}

// missRun is one execution of a miss.
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
	boxed   []*store.Vec
}

// start opens the cursor, pinned to the file epoch the admission read (or
// the current one): a rewrite fails the query with plan.ErrEpochChanged,
// which the engine retries.
func (p *missPlan) start(ctx *qctx) (*missRun, error) {
	r := &missRun{p: p}
	if p.spec != nil {
		var err error
		if r.a, err = newAdmission(ctx, p.spec, p.src); err != nil {
			return nil, err
		}
		r.epoch = r.a.epoch
	} else {
		r.epoch, _ = p.src.Version()
	}
	var err error
	if r.cursor, err = p.src.PushdownCursor(r.epoch, 0, p.pd); err != nil {
		return nil, err
	}
	r.dec = newLeafDecoder(p.src, r.epoch, p.cols, p.need)
	if len(p.boxCols) > 0 {
		r.boxed = make([]*store.Vec, len(p.leaves))
		for _, i := range p.boxCols {
			r.boxed[i] = store.NewVec(p.kinds[i])
		}
	}
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
			if r.offs, err = r.p.residual.Filter(r.p.src, r.epoch, r.offs); err != nil {
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
	if err == nil && r.boxed != nil {
		ch.boxed, err = r.box(r.offs)
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

// box decodes the boxed fields of the records at offs whole, with the
// format's record decoder.
func (r *missRun) box(offs []int64) ([]*store.Vec, error) {
	for _, v := range r.boxed {
		if v != nil {
			v.Truncate(0)
		}
	}
	return r.boxed, r.p.src.ScanOffsetsAt(r.epoch, offs, r.p.boxed, func(rec value.Value, _ int64, _ func() error) error {
		for i, v := range r.boxed {
			if v != nil {
				v.AppendVal(rec.L[i])
			}
		}
		return nil
	})
}

// finish ends a miss whose scan is done: the pushdown is noted, and the
// admission hands its outcome to the cache with the time spent outside
// chunk as the operators above's.
func (r *missRun) finish(ctx *qctx) {
	if r.p.pd != nil {
		ctx.deps.Manager.NotePushdown(r.p.pd.NumConjuncts(), r.skipped)
	}
	if a := r.a; a != nil {
		a.finish(ctx, r.last, max(time.Since(a.start).Nanoseconds()-r.nanos, 0))
	}
}

// missSource serves a miss as batches.
type missSource struct {
	p       *missPlan
	filters []*expr.VecFilter // Selects above the raw select
}

// open starts nothing: the scan begins at the first Next.
func (s *missSource) open(ctx *qctx) (vecIter, error) {
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
	return newChunkIter(next, end, s.p.cols, s.p.leaves, s.p.kinds, s.p.expand, s.filters)
}

// info counts the batches of a scan of every record known so far, without
// reading the file.
func (s *missSource) info(Deps) (int64, bool) {
	return (max(int64(s.p.src.NumRecords()), 0) + store.BatchRows - 1) / store.BatchRows, true
}

// chunkIter serves the chunks a miss or a lazy replay decodes as batches:
// column i is leaf leaves[i] of each chunk — or, at -1, the chunk's boxed
// field i — and nulls when the chunk did not decode it; the selection is
// the rows that pass the filters. An expanding iterator serves a chunk's
// flattened rows, a batch of at most store.BatchRows at a time: a record
// leaf gathered by the rows' parent records (store.ParentIndex), a
// repeated leaf read in order. next yields the chunks; end closes the read,
// which took own nanoseconds and served batches batches, or failed with
// err.
type chunkIter struct {
	next     func() (leafVecs, bool, error)
	end      func(own, batches int64, err error) error
	leaves   []int
	repeated []bool // per batch column
	kinds    []value.Kind
	expand   bool
	filters  []*expr.VecFilter
	ch       leafVecs
	lo, rows int  // the chunk's rows still to serve
	flat     bool // the chunk's rows are expanded
	parent   []int32
	gathered []*store.Vec // an expanded batch's columns, reused
	cols     []*store.Vec
	sel      []int32
	err      error
	batches  int64
	nanos    int64
}

func newChunkIter(next func() (leafVecs, bool, error), end func(own, batches int64, err error) error,
	cols []value.LeafColumn, leaves []int, kinds []value.Kind, expand bool, filters []*expr.VecFilter) (*chunkIter, error) {
	if err := checkFilters(kinds, filters); err != nil {
		return nil, err
	}
	it := &chunkIter{next: next, end: end, leaves: leaves, kinds: kinds, expand: expand, filters: filters,
		repeated: make([]bool, len(leaves)), gathered: make([]*store.Vec, len(leaves)),
		cols: make([]*store.Vec, len(leaves)), sel: make([]int32, 0, store.BatchRows)}
	for i, leaf := range leaves {
		it.repeated[i] = leaf >= 0 && cols[leaf].Repeated
		it.gathered[i] = store.NewVec(kinds[i])
	}
	return it, nil
}

func (it *chunkIter) Kinds() []value.Kind   { return it.kinds }
func (it *chunkIter) Stable() bool          { return false }
func (it *chunkIter) Cols() []*store.Vec    { return nil }
func (it *chunkIter) addScanNanos(n int64)  { it.nanos += n }
func (it *chunkIter) Close(ctx *qctx) error { return it.end(it.nanos, it.batches, it.err) }

func (it *chunkIter) Next() ([]*store.Vec, []int32, bool) {
	t0 := time.Now()
	for it.lo >= it.rows {
		if it.err != nil {
			return nil, nil, false
		}
		ch, ok, err := it.next()
		if !ok {
			it.err = err
			return nil, nil, false
		}
		it.ch, it.lo, it.rows = ch, 0, ch.n
		if it.flat = it.expand && ch.lengths != nil; it.flat {
			it.parent = store.ParentIndex(it.parent[:0], ch.lengths, 0)
			it.rows = len(it.parent)
		}
	}
	lo, hi := it.lo, min(it.lo+store.BatchRows, it.rows)
	for i, leaf := range it.leaves {
		var v *store.Vec
		if leaf >= 0 {
			v = it.ch.vecs[leaf]
		} else if it.ch.boxed != nil {
			v = it.ch.boxed[i]
		}
		switch {
		case v == nil:
			v = nullVecs[it.kinds[i]]
		case it.flat:
			g := it.gathered[i]
			g.Truncate(0)
			if it.repeated[i] {
				g.AppendRange(v, lo, hi)
			} else {
				g.AppendSel(v, it.parent[lo:hi])
			}
			v = g
		}
		it.cols[i] = v
	}
	it.lo = hi
	it.sel = identity(it.sel, hi-lo)
	sel := it.sel
	for _, f := range it.filters {
		sel = f.Apply(it.cols, sel)
	}
	it.batches++
	it.nanos += time.Since(t0).Nanoseconds()
	return it.cols, sel, true
}

// nullVecs hold store.BatchRows nulls of each kind: the columns of a
// batch that the query does not read. They are never written.
var nullVecs = func() (vs [value.Record + 1]*store.Vec) {
	for k := value.Bool; k <= value.Record; k++ {
		v := store.NewVec(k)
		for range store.BatchRows {
			v.AppendVal(value.VNull)
		}
		vs[k] = v
	}
	return vs
}()
