package exec

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/stats"
	"recache/internal/store"
	"recache/internal/value"
)

// This file is the second compiled pipeline flavor: vectorized batch
// execution. A columnar (or Parquet per-record) cache entry already holds
// typed column vectors; the row path decodes them back into boxed
// value.Value rows and pushes one tuple at a time through closure
// pipelines — row-store costs on column-store data. The vectorized flavor
// pulls column batches straight out of the entry's store (store.BatchCursor),
// or out of the chunks a flat lazy replay or raw miss decodes (miss.go),
// filters them with selection-vector kernels (expr.VecFilter), and feeds
// filter, projection and aggregation operators that consume whole batches.
//
// The flavor is chosen per pipeline at compile time — the plan shape and
// predicate must be vectorizable — with a row-at-a-time fallback decided at
// run time from the entry's payload snapshot (nested lazy entries and
// Parquet's FSM-assembled flattened view keep the row path).
// Both flavors produce identical results; the differential parity suite
// (vectorized_test.go) holds them to that.

// vecScan is the compile-time plan of a vectorized cached scan: the pinned
// entry plus the residual predicate compiled to selection kernels.
// replayable marks a flat entry over a typed kernel, whose lazy replay
// serves batches (cachescan.go).
type vecScan struct {
	cs         *plan.CachedScan
	entry      *cache.Entry
	filter     *expr.VecFilter
	outNames   []string
	replayable bool
}

// planVecScan checks the compile-time half of vectorizability: a real
// entry and a residual the kernels can run. ok is false when the scan must
// stay on the row path for every execution.
func planVecScan(cs *plan.CachedScan, disable bool) (*vecScan, bool) {
	if disable {
		return nil, false
	}
	entry, ok := cs.Entry.(*cache.Entry)
	if !ok || entry == nil {
		return nil, false
	}
	filter, ok := expr.CompileVecFilter(cs.Residual, cs.Out)
	if !ok {
		return nil, false
	}
	outNames := make([]string, len(cs.Out.Fields))
	for i, f := range cs.Out.Fields {
		outNames[i] = f.Name
	}
	p := &vecScan{cs: cs, entry: entry, filter: filter, outNames: outNames}
	if _, typed := entry.Dataset.Provider.(plan.ColumnAppender); typed {
		cols, err := value.LeafColumnsCached(entry.Dataset.Schema())
		p.replayable = err == nil && flatLeaves(cols)
	}
	return p, true
}

// payload snapshots the entry's mode and payload. admit distinguishes a
// real execution (re-admit a spilled payload from the disk tier, via
// Resident) from a side-effect-free probe (EXPLAIN reads the snapshot only;
// a spilled entry reports non-vectorized rather than triggering IO). A
// failed re-admission reports false: the row path's own Resident call
// surfaces the error.
func (p *vecScan) payload(deps Deps, admit bool) (mode cache.Mode, st store.Store, offsets []int64, ok bool) {
	switch {
	case deps.Manager == nil:
		// Manager-less executions (unit harnesses) own the entry outright;
		// everywhere else the snapshot must come from the locked accessors —
		// a concurrent tail extension swaps Store under the manager lock.
		mode, st, offsets = p.entry.Mode, p.entry.Store, p.entry.Offsets
	case admit:
		var err error
		if mode, st, offsets, err = deps.Manager.Resident(p.entry); err != nil {
			return mode, nil, nil, false
		}
	default:
		mode, st, offsets = deps.Manager.Payload(p.entry)
	}
	if mode == cache.Lazy {
		// A lazy replay serves batches when the entry is flat and its
		// offsets pin to a file epoch the typed kernel can replay.
		return mode, nil, offsets, p.replayable && appender(p.entry.Dataset.Provider, p.entry.FileEpoch) != nil
	}
	return mode, st, nil, st != nil
}

// cursor opens a batch cursor over an eager payload whose columns the
// kernels — the residual's and filters' — can read, or reports false.
func (p *vecScan) cursor(st store.Store, filters []*expr.VecFilter) (*store.BatchCursor, bool) {
	bs, ok := st.(store.BatchSource)
	if !ok {
		return nil, false
	}
	idx, err := store.ColumnIndexes(st, p.outNames)
	if err != nil {
		return nil, false
	}
	cur, ok := bs.BatchCursor(p.cs.Flat, idx)
	if !ok || !p.filter.Compatible(cur.Cols) {
		return nil, false
	}
	for _, f := range filters {
		if !f.Compatible(cur.Cols) {
			return nil, false
		}
	}
	return cur, true
}

// finish attributes one vectorized scan's cost to the entry (feeding the
// layout advisor and the VectorizedScans counters) and the query stats.
// scanNanos excludes downstream operator time, so the attribution stays
// per-entry even when a query touches several cached entries.
func (p *vecScan) finish(ctx *qctx, batches, scanNanos, rows int64) {
	if scanNanos < 0 {
		scanNanos = 0
	}
	ctx.stats.CacheScanNanos += scanNanos
	if ctx.deps.Manager != nil {
		st := store.ScanStats{
			DataNanos:   scanNanos,
			RowsScanned: rows,
			Batches:     batches,
			Vectorized:  true,
		}
		conv := ctx.deps.Manager.RecordScan(p.entry, st, len(p.outNames), scanNanos)
		ctx.stats.LayoutSwitchNanos += conv.Nanoseconds()
	}
}

// VectorizedInfo reports whether a CachedScan would take the vectorized
// pipeline if executed now, and the expected batch count. EXPLAIN uses it
// to annotate CachedScan nodes; it only reads the entry's payload snapshot.
func VectorizedInfo(cs *plan.CachedScan, m *cache.Manager) (bool, int64) {
	p, ok := planVecScan(cs, false)
	if !ok {
		return false, 0
	}
	batches, ok := (&scanSource{p: p}).info(Deps{Manager: m})
	return ok, batches
}

// compileCachedScanAuto compiles both scan flavors and picks per execution:
// the vectorized body when the payload supports batches, the row closure
// otherwise. Batches are materialized to rows only here, at the pipeline
// boundary; the residual runs as selection kernels before any boxing.
func compileCachedScanAuto(cs *plan.CachedScan, deps Deps) (runFn, error) {
	rowFn, err := compileCachedScan(cs, deps)
	if err != nil {
		return nil, err
	}
	p, ok := planVecScan(cs, deps.DisableVectorized)
	if !ok {
		return rowFn, nil
	}
	return vecEmit(&scanSource{p: p}, nil, rowFn), nil
}

// --- batch sources ---
//
// A vecSource is a compiled producer of column batches: a vectorized cache
// scan, a vectorized hash join over two of them (joinvec.go), or either
// wrapped in selection kernels. Vectorized Aggregate/Project and the
// batch→row boundary consume any source the same way, which is what lets
// the batch pipeline run end to end across a join.

// vecSource is the compile-time half: open checks the run-time half (entry
// payload snapshots, kind drift) and returns an iterator, or ok=false to
// send this execution to the row fallback.
type vecSource interface {
	open(ctx *qctx) (vecIter, bool)
	// info reports, without consuming anything, whether the source would
	// open right now and how many batches its consumer should expect
	// (EXPLAIN annotations).
	info(deps Deps) (batches int64, ok bool)
}

// vecIter streams one execution's batches.
type vecIter interface {
	// Kinds returns the column kinds, fixed across batches.
	Kinds() []value.Kind
	// Stable reports whether Next returns the same full-length vectors
	// every batch (selection indexes then address them directly — the
	// join build side stores row-ids instead of copying).
	Stable() bool
	// Cols returns the stable column vectors (nil when !Stable()).
	Cols() []*store.Vec
	// Next returns the next batch's columns and selection vector; ok=false
	// when exhausted. The selection holds at most store.BatchRows rows and
	// may be empty (a fully filtered batch).
	Next() (cols []*store.Vec, sel []int32, ok bool)
	// Close attributes the iteration's measured cost to cache entries and
	// counters; call once, after exhaustion. It returns the error that ended
	// the iteration early (a raw read that failed), if any.
	Close(ctx *qctx) error
}

// nanosSink lets a wrapping operator (the join probe) attribute extra
// per-batch work to the underlying entry's scan observation, feeding the
// layout advisor the true cost of serving those batches.
type nanosSink interface{ addScanNanos(int64) }

// scanSource adapts a vectorized CachedScan plus its Select chain's
// kernels to the source interface: a cursor over an eager entry's store, or
// a lazy entry's replay.
type scanSource struct {
	p       *vecScan
	filters []*expr.VecFilter
}

func (s *scanSource) open(ctx *qctx) (vecIter, bool) {
	mode, st, offsets, ok := s.p.payload(ctx.deps, true)
	if !ok {
		return nil, false
	}
	if mode == cache.Lazy {
		return s.p.replay(ctx, offsets, s.filters)
	}
	cur, ok := s.p.cursor(st, s.filters)
	if !ok {
		return nil, false
	}
	// The cursor caps each batch at the selection buffer's length.
	return &scanIter{p: s.p, filters: s.filters, cur: cur, selBuf: getSelBuf()}, true
}

// selBufPool recycles selection buffers across queries: the buffer is the
// hot path's only per-query allocation of batch size, and at hundreds of
// concurrent cache-hit queries the allocation rate alone drives the GC
// hard enough to show up in server-load throughput. Stored as *[]int32 to
// keep Put/Get themselves allocation-free.
var selBufPool sync.Pool

func getSelBuf() []int32 {
	if v := selBufPool.Get(); v != nil {
		return *v.(*[]int32)
	}
	return make([]int32, store.BatchRows)
}

func putSelBuf(b []int32) {
	selBufPool.Put(&b)
}

func (s *scanSource) info(deps Deps) (int64, bool) {
	mode, st, offsets, ok := s.p.payload(deps, false)
	if !ok {
		return 0, false
	}
	rows := int64(len(offsets))
	if mode != cache.Lazy {
		cur, ok := s.p.cursor(st, s.filters)
		if !ok {
			return 0, false
		}
		rows = cur.Rows
	}
	return (rows + store.BatchRows - 1) / store.BatchRows, true
}

type scanIter struct {
	p       *vecScan
	filters []*expr.VecFilter
	cur     *store.BatchCursor
	selBuf  []int32
	batches int64
	nanos   int64
	kinds   []value.Kind
}

func (it *scanIter) Kinds() []value.Kind {
	if it.kinds == nil {
		it.kinds = make([]value.Kind, len(it.cur.Cols))
		for i, v := range it.cur.Cols {
			it.kinds[i] = v.Kind
		}
	}
	return it.kinds
}

func (it *scanIter) Stable() bool         { return true }
func (it *scanIter) Cols() []*store.Vec   { return it.cur.Cols }
func (it *scanIter) addScanNanos(n int64) { it.nanos += n }

func (it *scanIter) Next() ([]*store.Vec, []int32, bool) {
	t0 := time.Now()
	sel := it.cur.Next(it.selBuf)
	if sel == nil {
		it.nanos += time.Since(t0).Nanoseconds()
		return nil, nil, false
	}
	it.batches++
	sel = it.p.filter.Apply(it.cur.Cols, sel)
	for _, f := range it.filters {
		sel = f.Apply(it.cur.Cols, sel)
	}
	it.nanos += time.Since(t0).Nanoseconds()
	return it.cur.Cols, sel, true
}

func (it *scanIter) Close(ctx *qctx) error {
	it.p.finish(ctx, it.batches, it.nanos, it.cur.Rows)
	// The last batch's selection has been consumed by the time the
	// pipeline closes its source, so the buffer can go back to the pool.
	putSelBuf(it.selBuf)
	it.selBuf = nil
	return nil
}

// filterSource applies Select kernels on top of a non-scan source (the
// vectorized join's gathered output batches). Scan-level filters live
// inside scanSource instead, where they tighten the physical selection
// before any gather.
type filterSource struct {
	src     vecSource
	filters []*expr.VecFilter
}

func (s *filterSource) open(ctx *qctx) (vecIter, bool) {
	inner, ok := s.src.open(ctx)
	if !ok {
		return nil, false
	}
	kinds := inner.Kinds()
	for _, f := range s.filters {
		if !f.CompatibleKinds(kinds) {
			return nil, false
		}
	}
	return &filterIter{vecIter: inner, filters: s.filters}, true
}

func (s *filterSource) info(deps Deps) (int64, bool) { return s.src.info(deps) }

type filterIter struct {
	vecIter
	filters []*expr.VecFilter
}

func (it *filterIter) Next() ([]*store.Vec, []int32, bool) {
	cols, sel, ok := it.vecIter.Next()
	if !ok {
		return nil, nil, false
	}
	for _, f := range it.filters {
		sel = f.Apply(cols, sel)
	}
	return cols, sel, true
}

// vecEmit builds the batch→rows boundary operator shared by the vectorized
// CachedScan, Project, and row-consumed joins: pull batches, materialize
// the selected rows (optionally permuted to proj's column order) and emit
// them. Falls back to rowFn when the source cannot open this execution.
func vecEmit(src vecSource, proj []int, rowFn runFn) runFn {
	return func(ctx *qctx, out emitFn) error {
		it, ok := src.open(ctx)
		if !ok {
			return rowFn(ctx, out)
		}
		return emitIter(ctx, it, proj, out)
	}
}

// emitIter drains an open iterator through the batch→row boundary. The
// boundary's own cost — FillRows boxing and the emit loop, minus sampled
// downstream operator time — is part of serving the source's batches to a
// row consumer, so it is routed back into the source's scan attribution
// (nanosSink) before Close records the observation.
func emitIter(ctx *qctx, it vecIter, proj []int, out emitFn) error {
	nc := len(it.Kinds())
	if proj != nil {
		nc = len(proj)
	}
	stride := nc
	if stride == 0 {
		stride = 1
	}
	chunk := make([]value.Value, store.BatchRows*stride)
	var outCols []*store.Vec
	if proj != nil {
		outCols = make([]*store.Vec, len(proj))
	}
	down := stats.NewSampledTimer(stats.SampleShift, nil)
	var emitWall int64
	for {
		cols, sel, ok := it.Next()
		if !ok {
			break
		}
		if len(sel) == 0 {
			continue
		}
		emitCols := cols
		if proj != nil {
			for i, c := range proj {
				outCols[i] = cols[c]
			}
			emitCols = outCols
		}
		t0 := time.Now()
		store.FillRows(emitCols, sel, chunk, nc)
		for k := range sel {
			row := chunk[k*nc : (k+1)*nc : (k+1)*nc]
			if down.Begin() {
				err := out(row)
				down.End()
				if err != nil {
					return err
				}
			} else if err := out(row); err != nil {
				return err
			}
		}
		emitWall += time.Since(t0).Nanoseconds()
	}
	if sink, ok := it.(nanosSink); ok {
		if boundary := emitWall - down.EstimatedTotal().Nanoseconds(); boundary > 0 {
			sink.addScanNanos(boundary)
		}
	}
	return it.Close(ctx)
}

// peelVecSource walks [Select*] → (CachedScan | Join | raw select), compiling
// every Select predicate above the source to selection kernels (they all
// see their child's output schema — Selects do not change it). Filters over
// a scan or a miss tighten the selection inside that source; filters over a
// join run on the gathered output batches. ok is false when the chain has
// any other operator or a non-vectorizable predicate.
func peelVecSource(n plan.Node, deps Deps) (vecSource, bool) {
	if deps.DisableVectorized {
		return nil, false
	}
	var filters []*expr.VecFilter
	for {
		if src, ok, _ := flatMiss(n, deps); ok {
			src.filters = filters
			return src, true
		}
		switch x := n.(type) {
		case *plan.Select:
			if _, raw := x.Child.(*plan.Scan); raw {
				return nil, false
			}
			f, ok := expr.CompileVecFilter(x.Pred, x.Child.OutSchema())
			if !ok {
				return nil, false
			}
			filters = append(filters, f)
			n = x.Child
		case *plan.CachedScan:
			p, ok := planVecScan(x, deps.DisableVectorized)
			if !ok {
				return nil, false
			}
			return &scanSource{p: p, filters: filters}, true
		case *plan.Join:
			vj, ok := planVecJoin(x, deps)
			if !ok {
				return nil, false
			}
			var src vecSource = &joinSource{vj: vj}
			if len(filters) > 0 {
				src = &filterSource{src: src, filters: filters}
			}
			return src, true
		default:
			return nil, false
		}
	}
}

// vecProjectSource resolves Project(peelVecSource's chain) to a batch
// source plus a column permutation when every projected expression is a
// plain column reference.
func vecProjectSource(pr *plan.Project, deps Deps) (vecSource, []int, bool) {
	src, ok := peelVecSource(pr.Child, deps)
	if !ok {
		return nil, nil, false
	}
	in := pr.Child.OutSchema()
	proj := make([]int, len(pr.Exprs))
	for i, e := range pr.Exprs {
		slot, ok := expr.ColSlot(e, in)
		if !ok {
			return nil, nil, false
		}
		proj[i] = slot
	}
	return src, proj, true
}

// planVecProject vectorizes a column-permutation Project below the root:
// the permutation is applied at the batch level, rows materialize at the
// boundary.
func planVecProject(pr *plan.Project, deps Deps, rowFn runFn) (runFn, bool) {
	src, proj, ok := vecProjectSource(pr, deps)
	if !ok {
		return nil, false
	}
	return vecEmit(src, proj, rowFn), true
}

// rootSource resolves the plan root to the batch source whose output is the
// query result (proj permutes its columns; nil keeps them), or a nil source
// when the root is not batch-native: only a column-permutation Project or a
// bare peelVecSource chain is.
func rootSource(root plan.Node, deps Deps) (vecSource, []int) {
	if pr, ok := root.(*plan.Project); ok {
		src, proj, _ := vecProjectSource(pr, deps)
		return src, proj
	}
	src, _ := peelVecSource(root, deps)
	return src, nil
}

// BatchResultInfo reports whether the plan root would hand its result to
// the sink as column batches if executed now. EXPLAIN uses it; it only
// reads entry payload snapshots.
func BatchResultInfo(root plan.Node, m *cache.Manager, disableVec bool) bool {
	deps := Deps{Manager: m, DisableVectorized: disableVec}
	src, _ := rootSource(root, deps)
	if src == nil {
		return false
	}
	_, ok := src.info(deps)
	return ok
}

// sinkIter drains an open root iterator into the result sink: the batch
// exit. Each non-empty batch goes to the sink as (columns, selection) —
// permuted to proj's column order — without a batch→row boundary. What the
// sink spends gathering the borrowed vectors is part of serving the
// source's batches, as emitIter's boxing is, so it is routed into the
// source's scan attribution before Close records the observation.
func sinkIter(ctx *qctx, it vecIter, proj []int, sink Sink) error {
	var outCols []*store.Vec
	if proj != nil {
		outCols = make([]*store.Vec, len(proj))
	}
	var gather int64
	for {
		cols, sel, ok := it.Next()
		if !ok {
			break
		}
		if len(sel) == 0 {
			continue
		}
		if proj != nil {
			for i, c := range proj {
				outCols[i] = cols[c]
			}
			cols = outCols
		}
		t0 := time.Now()
		if err := sink.Batch(cols, sel); err != nil {
			return err
		}
		gather += time.Since(t0).Nanoseconds()
		ctx.stats.RowsOut += len(sel)
		ctx.stats.ResultBatches++
	}
	if ns, ok := it.(nanosSink); ok {
		ns.addScanNanos(gather)
	}
	return it.Close(ctx)
}

// --- vectorized aggregation ---

// vaggAcc accumulates one aggregate over typed vectors, mirroring the row
// path's aggState exactly (same float64 accumulation order, same null and
// empty-input semantics) so both flavors produce identical results.
type vaggAcc struct {
	fn    plan.AggFunc
	arg   int // batch column slot of the argument; -1 for COUNT(*)
	kind  value.Kind
	count int64 // values folded (rows for COUNT(*)); 0 makes SUM, AVG, MIN and MAX NULL
	sum   float64
	mi    int64
	mf    float64
	ms    string
	mb    bool
}

// updateBatch folds a whole selection batch into the accumulator. The kind
// dispatch and the null-word test happen once per batch, and each typed
// loop runs on locals written back once: a field behind the receiver is
// stored and reloaded every row, and a float SUM would wait on that round
// trip at every add.
func (a *vaggAcc) updateBatch(cols []*store.Vec, sel []int32) {
	if a.arg < 0 { // COUNT(*): every selected row counts
		a.count += int64(len(sel))
		return
	}
	v := cols[a.arg]
	var nulls *store.Bitmap
	if v.Nulls.AnySel(sel) {
		nulls = &v.Nulls
	}
	switch {
	case a.fn == plan.AggCount:
		n := int64(len(sel))
		if nulls != nil {
			for _, r := range sel {
				if nulls.Get(int(r)) {
					n--
				}
			}
		}
		a.count += n
	case (a.fn == plan.AggSum || a.fn == plan.AggAvg) && v.Kind == value.Int:
		a.count, a.sum = foldSum(v.Ints, sel, nulls, a.count, a.sum)
	case a.fn == plan.AggSum || a.fn == plan.AggAvg:
		a.count, a.sum = foldSum(v.Floats, sel, nulls, a.count, a.sum)
	case v.Kind == value.Int:
		a.count, a.mi = foldExtreme(v.Ints, sel, nulls, a.fn == plan.AggMin, a.count, a.mi)
	case v.Kind == value.Float:
		a.count, a.mf = foldExtreme(v.Floats, sel, nulls, a.fn == plan.AggMin, a.count, a.mf)
	default:
		for _, r := range sel {
			if nulls == nil || !nulls.Get(int(r)) {
				a.updateRow(v, r)
			}
		}
	}
}

// foldSum adds the non-NULL values xs holds at sel to a running count and
// sum, in selection order (so a float sum is bit-identical to the row
// path's); nulls is nil when the selection's null words hold none.
func foldSum[T int64 | float64](xs []T, sel []int32, nulls *store.Bitmap, n int64, sum float64) (int64, float64) {
	if nulls == nil {
		for _, r := range sel {
			sum += float64(xs[r])
		}
		return n + int64(len(sel)), sum
	}
	for _, r := range sel {
		if !nulls.Get(int(r)) {
			n++
			sum += float64(xs[r])
		}
	}
	return n, sum
}

// foldExtreme is foldSum for MIN (isMin) or MAX: m is the running extreme
// of the n values folded so far. A NaN never replaces m, and a first NaN is
// never replaced, as under the row path's Compare.
func foldExtreme[T int64 | float64](xs []T, sel []int32, nulls *store.Bitmap, isMin bool, n int64, m T) (int64, T) {
	if nulls != nil {
		for _, r := range sel {
			if nulls.Get(int(r)) {
				continue
			}
			if x := xs[r]; n == 0 || (isMin && x < m) || (!isMin && x > m) {
				m = x
			}
			n++
		}
		return n, m
	}
	if len(sel) == 0 {
		return n, m
	}
	if n == 0 {
		m = xs[sel[0]]
	}
	if isMin {
		for _, r := range sel {
			if x := xs[r]; x < m {
				m = x
			}
		}
	} else {
		for _, r := range sel {
			if x := xs[r]; x > m {
				m = x
			}
		}
	}
	return n + int64(len(sel)), m
}

// updateRow folds non-NULL row r of a string or bool MIN/MAX argument: the
// shapes with no typed loop.
func (a *vaggAcc) updateRow(v *store.Vec, r int32) {
	first, isMin := a.count == 0, a.fn == plan.AggMin
	a.count++
	if v.Kind == value.String {
		if x := v.Strs[r]; first || (isMin && x < a.ms) || (!isMin && x > a.ms) {
			a.ms = x
		}
	} else if x := v.Bools[r]; first || (isMin && !x && a.mb) || (!isMin && x && !a.mb) {
		a.mb = x
	}
}

// result mirrors aggState.result.
func (a *vaggAcc) result() value.Value {
	switch a.fn {
	case plan.AggCount:
		return value.VInt(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return value.VNull
		}
		return value.VFloat(a.sum)
	case plan.AggAvg:
		if a.count == 0 {
			return value.VNull
		}
		return value.VFloat(a.sum / float64(a.count))
	case plan.AggMin, plan.AggMax:
		if a.count == 0 {
			return value.VNull
		}
		switch a.kind {
		case value.Int:
			return value.VInt(a.mi)
		case value.Float:
			return value.VFloat(a.mf)
		case value.String:
			return value.VString(a.ms)
		case value.Bool:
			return value.VBool(a.mb)
		}
	}
	return value.VNull
}

// vgroup is one GROUP BY group of the vectorized aggregation: its key
// values and rendered sort key. Its accumulators live in per-aggregate
// slices indexed by group, so a typed fold walks one aggregate at a time.
type vgroup struct {
	keys    []value.Value
	sortKey string // rendered key, matching the row path's output order
}

// groupIndex resolves batch rows to group indexes. A single Int key goes
// through the join's typed table (key → group index in the row payload),
// its NULL key kept aside; any other key shape hashes the typed key columns
// and compares candidates against the groups' materialized keys.
type groupIndex struct {
	gcols    []int
	groups   []vgroup
	ints     *joinTable
	nullG    int32 // the NULL key's group under ints; -1 until seen
	hashed   map[uint64][]int32
	nullable []bool  // per key column: the batch's null words hold a null
	gidx     []int32 // resolve's output buffer: the batch's group per selected row
}

func newGroupIndex(gcols []int, kinds []value.Kind) *groupIndex {
	gi := &groupIndex{gcols: gcols, nullG: -1}
	if len(gcols) == 1 && kinds[gcols[0]] == value.Int {
		gi.ints = newJoinTable(keyModeInt, 0)
	} else {
		gi.hashed = make(map[uint64][]int32)
	}
	return gi
}

// resolve returns the group of every row of sel, in order, adding a group
// per first-seen key. It writes into gi.gidx, one slot per row, so the loop
// keeps its output in a local instead of appending through gi.
func (gi *groupIndex) resolve(cols []*store.Vec, sel []int32) []int32 {
	if cap(gi.gidx) < len(sel) {
		gi.gidx = make([]int32, max(len(sel), store.BatchRows))
	}
	gidx := gi.gidx[:len(sel)]
	if t := gi.ints; t != nil {
		v := cols[gi.gcols[0]]
		ints, nulls := v.Ints, v.Nulls.AnySel(sel)
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				if gi.nullG < 0 {
					gi.nullG = gi.add(cols, r)
				}
				gidx[k] = gi.nullG
				continue
			}
			ik := ints[r]
			h := hashUint(uint64(ik))
			if e := t.findInt(ik, h); e >= 0 {
				gidx[k] = t.ents[e].row
			} else {
				g := gi.add(cols, r)
				t.insert(typedKey{h: h, ik: ik}, g)
				gidx[k] = g
			}
		}
		return gidx
	}
	gi.nullable = gi.nullable[:0]
	for _, c := range gi.gcols {
		gi.nullable = append(gi.nullable, cols[c].Nulls.AnySel(sel))
	}
	for k, r := range sel {
		h := hashGroupKey(cols, gi.gcols, gi.nullable, r)
		g := int32(-1)
		for _, cand := range gi.hashed[h] {
			if groupKeyEq(cols, gi.gcols, gi.nullable, r, gi.groups[cand].keys) {
				g = cand
				break
			}
		}
		if g < 0 {
			g = gi.add(cols, r)
			gi.hashed[h] = append(gi.hashed[h], g)
		}
		gidx[k] = g
	}
	return gidx
}

// add materializes row r's keys as a new group and returns its index.
func (gi *groupIndex) add(cols []*store.Vec, r int32) int32 {
	keys := make([]value.Value, len(gi.gcols))
	var sb strings.Builder
	for i, c := range gi.gcols {
		keys[i] = cols[c].Get(int(r))
		sb.WriteString(keys[i].String())
		sb.WriteByte(0)
	}
	gi.groups = append(gi.groups, vgroup{keys: keys, sortKey: sb.String()})
	return int32(len(gi.groups) - 1)
}

// foldGroups folds one batch into one aggregate's per-group accumulators:
// row sel[k] goes to accs[gidx[k]]. Each group sees its rows in selection
// order, as the row path's per-row update does, so float sums are
// bit-identical. The kind dispatch and the null-word test happen once per
// batch; string and bool MIN/MAX fall back to updateRow.
func foldGroups(accs []vaggAcc, cols []*store.Vec, sel, gidx []int32) {
	fn, arg := accs[0].fn, accs[0].arg
	if arg < 0 { // COUNT(*)
		for _, g := range gidx {
			accs[g].count++
		}
		return
	}
	v := cols[arg]
	nulls := v.Nulls.AnySel(sel)
	switch {
	case fn == plan.AggCount:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				accs[gidx[k]].count++
			}
		}
	case (fn == plan.AggSum || fn == plan.AggAvg) && v.Kind == value.Int:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				a := &accs[gidx[k]]
				a.count++
				a.sum += float64(v.Ints[r])
			}
		}
	case fn == plan.AggSum || fn == plan.AggAvg:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				a := &accs[gidx[k]]
				a.count++
				a.sum += v.Floats[r]
			}
		}
	case v.Kind == value.Int:
		isMin := fn == plan.AggMin
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				continue
			}
			a := &accs[gidx[k]]
			if x := v.Ints[r]; a.count == 0 || (isMin && x < a.mi) || (!isMin && x > a.mi) {
				a.mi = x
			}
			a.count++
		}
	case v.Kind == value.Float:
		isMin := fn == plan.AggMin
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				continue
			}
			a := &accs[gidx[k]]
			if x := v.Floats[r]; a.count == 0 || (isMin && x < a.mf) || (!isMin && x > a.mf) {
				a.mf = x
			}
			a.count++
		}
	default:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				accs[gidx[k]].updateRow(v, r)
			}
		}
	}
}

// planVecAggregate vectorizes Aggregate([Select*](CachedScan|Join)) when
// every aggregate argument and group-by expression is a plain column
// reference. GROUP BY hashes typed key columns per selected row (no
// per-row string keys, no boxing); the ungrouped path folds whole batches.
// With a Join source the batch pipeline runs end to end: probe matches are
// gathered into batches and folded here without ever boxing a row.
func planVecAggregate(a *plan.Aggregate, deps Deps, rowFn runFn) (runFn, bool) {
	src, ok := peelVecSource(a.Child, deps)
	if !ok {
		return nil, false
	}
	in := a.Child.OutSchema()
	args := make([]int, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Arg == nil {
			args[i] = -1
			continue
		}
		slot, ok := expr.ColSlot(s.Arg, in)
		if !ok {
			return nil, false
		}
		args[i] = slot
	}
	gcols := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		slot, ok := expr.ColSlot(g, in)
		if !ok {
			return nil, false
		}
		gcols[i] = slot
	}
	specs := a.Aggs

	newAcc := func(i int, kinds []value.Kind) vaggAcc {
		a := vaggAcc{fn: specs[i].Func, arg: args[i]}
		if args[i] >= 0 {
			a.kind = kinds[args[i]]
		}
		return a
	}

	return func(ctx *qctx, out emitFn) error {
		it, ok := src.open(ctx)
		if !ok {
			return rowFn(ctx, out)
		}
		kinds := it.Kinds()
		// SUM/AVG kernels read numeric vectors; a non-numeric argument
		// column (impossible through NewAggregate, cheap to guard) keeps
		// the row path.
		for i, s := range specs {
			if (s.Func == plan.AggSum || s.Func == plan.AggAvg) && args[i] >= 0 {
				if k := kinds[args[i]]; k != value.Int && k != value.Float {
					return rowFn(ctx, out)
				}
			}
		}

		if len(gcols) == 0 {
			accs := make([]vaggAcc, len(specs))
			for i := range accs {
				accs[i] = newAcc(i, kinds)
			}
			for {
				cols, sel, ok := it.Next()
				if !ok {
					break
				}
				for i := range accs {
					accs[i].updateBatch(cols, sel)
				}
			}
			if err := it.Close(ctx); err != nil {
				return err
			}
			outRow := make([]value.Value, len(accs))
			for i := range accs {
				outRow[i] = accs[i].result()
			}
			return out(outRow)
		}

		gi := newGroupIndex(gcols, kinds)
		accs := make([][]vaggAcc, len(specs))
		for {
			cols, sel, ok := it.Next()
			if !ok {
				break
			}
			if len(sel) == 0 {
				continue
			}
			gidx := gi.resolve(cols, sel)
			for ai := range accs {
				for len(accs[ai]) < len(gi.groups) {
					accs[ai] = append(accs[ai], newAcc(ai, kinds))
				}
				foldGroups(accs[ai], cols, sel, gidx)
			}
		}
		if err := it.Close(ctx); err != nil {
			return err
		}
		// Deterministic output order, identical to the row path's.
		order := make([]int32, len(gi.groups))
		for g := range order {
			order[g] = int32(g)
		}
		sort.Slice(order, func(i, j int) bool {
			return gi.groups[order[i]].sortKey < gi.groups[order[j]].sortKey
		})
		outRow := make([]value.Value, len(gcols)+len(specs))
		for _, g := range order {
			copy(outRow, gi.groups[g].keys)
			for ai := range accs {
				outRow[len(gcols)+ai] = accs[ai][g].result()
			}
			if err := out(outRow); err != nil {
				return err
			}
		}
		return nil
	}, true
}

// canonFloatBits normalizes a float group key for hashing/equality: all
// NaNs collapse (the row path's rendered keys merge them) while +0 and -0
// stay distinct (they render "0" and "-0").
func canonFloatBits(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	return h
}

// hashGroupKey hashes the typed group-key columns of one row; nullable[i]
// says whether key column i's null words hold a null in this batch.
func hashGroupKey(cols []*store.Vec, gcols []int, nullable []bool, r int32) uint64 {
	h := uint64(fnvOffset)
	for i, c := range gcols {
		v := cols[c]
		if nullable[i] && v.Nulls.Get(int(r)) {
			h = mix(h, 0xa5a5a5a5)
			continue
		}
		switch v.Kind {
		case value.Int:
			h = mix(h, 1)
			h = mix(h, uint64(v.Ints[r]))
		case value.Float:
			h = mix(h, 2)
			h = mix(h, canonFloatBits(v.Floats[r]))
		case value.String:
			h = mix(h, 3)
			s := v.Strs[r]
			for i := 0; i < len(s); i++ {
				h = mix(h, uint64(s[i]))
			}
		case value.Bool:
			h = mix(h, 4)
			if v.Bools[r] {
				h = mix(h, 1)
			} else {
				h = mix(h, 0)
			}
		}
	}
	return h
}

// groupKeyEq compares one row's typed key columns against a group's
// materialized keys; nullable is hashGroupKey's.
func groupKeyEq(cols []*store.Vec, gcols []int, nullable []bool, r int32, keys []value.Value) bool {
	for i, c := range gcols {
		v := cols[c]
		k := keys[i]
		if nullable[i] && v.Nulls.Get(int(r)) {
			if k.Kind != value.Null {
				return false
			}
			continue
		}
		if k.Kind == value.Null {
			return false
		}
		switch v.Kind {
		case value.Int:
			if k.I != v.Ints[r] {
				return false
			}
		case value.Float:
			if canonFloatBits(k.F) != canonFloatBits(v.Floats[r]) {
				return false
			}
		case value.String:
			if k.S != v.Strs[r] {
				return false
			}
		case value.Bool:
			if k.B != v.Bools[r] {
				return false
			}
		}
	}
	return true
}
