package exec

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// This file holds the batch sources every operator is built from, the
// cache scan among them, and the root's exit into the sink.

// vecSource is a compiled producer of column batches: a cache scan, a
// miss or a lazy replay (miss.go), a join, an aggregate, or one of those
// behind selection kernels or computed columns. open checks the run-time
// half (entry payload snapshots, kinds) and returns an iterator, or the
// error that keeps this execution from reading the source.
type vecSource interface {
	open(ctx *qctx) (vecIter, error)
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

// nanosSink lets a consuming operator (the join, the root's sink) attribute
// the work of serving a scan's batches to the scan's observation, feeding
// the layout advisor the true cost of its read pattern.
type nanosSink interface{ addScanNanos(int64) }

// addScanNanos hands n nanoseconds to it's scan observation, if it has one.
func addScanNanos(it vecIter, n int64) {
	if s, ok := it.(nanosSink); ok {
		s.addScanNanos(n)
	}
}

// checkFilters verifies that a source's columns hold the kinds its
// filters' typed kernels read.
func checkFilters(kinds []value.Kind, filters []*expr.VecFilter) error {
	for _, f := range filters {
		if !f.Compatible(kinds) {
			return fmt.Errorf("exec: filter kernels do not match the column kinds %v", kinds)
		}
	}
	return nil
}

// withFilter puts f on src: inside a scan, a miss or a replay, where it
// tightens the selection before anything above sees the batch, or around
// any other source.
func withFilter(src vecSource, f *expr.VecFilter) vecSource {
	switch s := src.(type) {
	case *scanSource:
		s.filters = append(s.filters, f)
	case *missSource:
		s.filters = append(s.filters, f)
	case *filterSource:
		s.filters = append(s.filters, f)
	default:
		return &filterSource{src: src, filters: []*expr.VecFilter{f}}
	}
	return src
}

// --- the cache scan ---

// scanSource is the cache-reuse operator: a cursor over an eager entry's
// store (flattened or per-record granularity), or a lazy entry's replay
// through the raw file — upgrading it to an eager cache as §5.2 prescribes
// (cachescan.go). filters[0] is the residual of a subsumption hit (§3.3),
// compiled against the projected output schema. A flattening scan reads
// the flattened view memoised on the entry if it has one (Manager.View)
// and expands the Parquet payload otherwise. Every scan's cost split feeds
// the layout advisor via Manager.RecordScan.
//
// Concurrency: the entry's mode and payload are snapshotted through
// Manager.Resident at open, so the scan keeps reading a consistent
// immutable store even if the entry is concurrently upgraded, extended, or
// evicted, or its view is shed (the query's Txn pin keeps it alive). For a
// spilled entry Resident reads the scan's leaves (and, for a flattening
// scan, the list lengths) from the disk tier into the scan's own store — a
// disk hit costs a read of those sections here, never a raw re-scan — and
// an unreadable spill file fails the query with its error.
type scanSource struct {
	cs       *plan.CachedScan
	entry    *cache.Entry
	outNames []string
	leaves   store.Leaves // the output columns' leaves, in output order
	filters  []*expr.VecFilter
}

func compileCachedScan(cs *plan.CachedScan) (*scanSource, error) {
	entry, ok := cs.Entry.(*cache.Entry)
	if !ok || entry == nil {
		return nil, fmt.Errorf("exec: CachedScan without entry")
	}
	f, err := expr.CompileVecFilter(cs.Residual, cs.Out)
	if err != nil {
		return nil, err
	}
	outNames := make([]string, len(cs.Out.Fields))
	for i, fd := range cs.Out.Fields {
		outNames[i] = fd.Name
	}
	leaves, err := store.LeavesOf(entry.Dataset.Schema(), outNames, cs.Flat)
	if err != nil {
		return nil, err
	}
	return &scanSource{cs: cs, entry: entry, outNames: outNames, leaves: leaves, filters: []*expr.VecFilter{f}}, nil
}

// payload snapshots the entry's mode and payload. read distinguishes a
// real execution (through Resident, which reads a spilled payload's leaves
// from the disk tier) from a side-effect-free probe (EXPLAIN reads the
// snapshot only).
func (s *scanSource) payload(deps Deps, read bool) (mode cache.Mode, st store.Store, offsets []int64, err error) {
	if read {
		return deps.Manager.Resident(s.entry, s.leaves)
	}
	mode, st, offsets = deps.Manager.Payload(s.entry)
	return mode, st, offsets, nil
}

func (s *scanSource) open(ctx *qctx) (vecIter, error) {
	mode, st, offsets, err := s.payload(ctx.deps, true)
	if err != nil {
		return nil, err
	}
	if mode == cache.Lazy {
		return s.replay(ctx, offsets)
	}
	if s.cs.Flat {
		st = ctx.deps.Manager.View(s.entry, st)
	}
	cur, err := st.BatchCursor(s.cs.Flat, s.leaves.Cols)
	if err != nil {
		return nil, err
	}
	it := &scanIter{s: s, st: st, cur: cur, kinds: make([]value.Kind, len(cur.Cols))}
	for i, v := range cur.Cols {
		it.kinds[i] = v.Kind
	}
	if err := checkFilters(it.kinds, s.filters); err != nil {
		return nil, err
	}
	// The cursor caps each batch at the selection buffer's length.
	it.selBuf = getSelBuf()
	return it, nil
}

func (s *scanSource) info(deps Deps) (int64, bool) {
	mode, st, offsets, _ := s.payload(deps, false)
	rows := len(offsets)
	switch {
	case mode == cache.Lazy:
	case st == nil:
		return 0, false
	case s.cs.Flat:
		rows = st.NumFlatRows()
	default:
		rows = st.NumRecords()
	}
	return (int64(rows) + store.BatchRows - 1) / store.BatchRows, true
}

// finish attributes one scan's cost to the entry (feeding the layout
// advisor and the VectorizedScans counters) and the query stats: scanNanos
// of batch work, excluding the operators above, plus the cursor's record
// expansion, which is the scan's C_i.
func (s *scanSource) finish(ctx *qctx, batches, scanNanos int64, cur *store.BatchCursor) {
	scanNanos = max(scanNanos, 0) + cur.ComputeNanos
	ctx.stats.CacheScanNanos += scanNanos
	st := store.ScanStats{
		DataNanos:    scanNanos - cur.ComputeNanos,
		ComputeNanos: cur.ComputeNanos,
		RowsScanned:  cur.Rows,
		Batches:      batches,
	}
	derive := ctx.deps.Manager.RecordScan(s.entry, st, scanNanos)
	ctx.stats.LayoutSwitchNanos += derive.Nanoseconds()
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

type scanIter struct {
	s       *scanSource
	st      store.Store // the payload snapshot, or its view, that cur reads
	cur     *store.BatchCursor
	selBuf  []int32
	batches int64
	nanos   int64
	kinds   []value.Kind
}

func (it *scanIter) Kinds() []value.Kind  { return it.kinds }
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
	for _, f := range it.s.filters {
		sel = f.Apply(it.cur.Cols, sel)
	}
	it.nanos += time.Since(t0).Nanoseconds()
	return it.cur.Cols, sel, true
}

func (it *scanIter) Close(ctx *qctx) error {
	it.s.finish(ctx, it.batches, it.nanos, it.cur)
	// The last batch's selection has been consumed by the time the
	// pipeline closes its source, so the buffer can go back to the pool.
	putSelBuf(it.selBuf)
	it.selBuf = nil
	return nil
}

// VectorizedInfo reports whether a CachedScan's payload is readable right
// now, and the expected batch count. EXPLAIN uses it to annotate
// CachedScan nodes; it only reads the entry's payload snapshot.
func VectorizedInfo(cs *plan.CachedScan, m *cache.Manager) (bool, int64) {
	s, err := compileCachedScan(cs)
	if err != nil {
		return false, 0
	}
	batches, ok := s.info(Deps{Manager: m})
	return ok, batches
}

// --- filters and computed columns ---

// filterSource applies Select kernels on top of a source with no filters
// of its own: a join's gathered output, an aggregate's result, computed
// columns.
type filterSource struct {
	src     vecSource
	filters []*expr.VecFilter
}

func (s *filterSource) open(ctx *qctx) (vecIter, error) {
	inner, err := s.src.open(ctx)
	if err != nil {
		return nil, err
	}
	if err := checkFilters(inner.Kinds(), s.filters); err != nil {
		return nil, err
	}
	return &filterIter{vecIter: inner, filters: s.filters}, nil
}

func (s *filterSource) info(deps Deps) (int64, bool) { return s.src.info(deps) }

type filterIter struct {
	vecIter
	filters []*expr.VecFilter
}

func (it *filterIter) addScanNanos(n int64) { addScanNanos(it.vecIter, n) }

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

// evalSource computes one column per expression over a source's batches:
// a Project's output, an aggregate's arguments and group keys, a join key.
// A plain column reference is its input column, passed through untouched;
// every other expression — a path into a sub-record, arithmetic, a
// comparison — runs on the generic kernel: the batch's selected rows are
// boxed (store.FillRows) and the compiled expr.Evaluator runs on each,
// into a vector of the expression's kind. Its semantics are the
// evaluator's by construction.
type evalSource struct {
	src   vecSource
	slots []int            // per output column: its input column, or -1
	evals []expr.Evaluator // per output column with slot -1
	kinds []value.Kind     // per output column with slot -1
}

func newEvalSource(src vecSource, in *value.Type, exprs []expr.Expr) (*evalSource, error) {
	s := &evalSource{src: src, slots: make([]int, len(exprs)),
		evals: make([]expr.Evaluator, len(exprs)), kinds: make([]value.Kind, len(exprs))}
	for i, e := range exprs {
		if slot, ok := expr.ColSlot(e, in); ok {
			s.slots[i] = slot
			continue
		}
		t, err := e.Type(in)
		if err != nil {
			return nil, err
		}
		if s.evals[i], err = expr.Compile(e, in); err != nil {
			return nil, err
		}
		s.slots[i], s.kinds[i] = -1, t.Kind
	}
	return s, nil
}

func (s *evalSource) info(deps Deps) (int64, bool) { return s.src.info(deps) }

func (s *evalSource) open(ctx *qctx) (vecIter, error) {
	inner, err := s.src.open(ctx)
	if err != nil {
		return nil, err
	}
	it := &evalIter{vecIter: inner, s: s, kinds: slices.Clone(s.kinds), cols: make([]*store.Vec, len(s.slots))}
	for i, slot := range s.slots {
		if slot >= 0 {
			it.kinds[i] = inner.Kinds()[slot]
		} else {
			it.computed = true
		}
	}
	if it.computed {
		it.out = make([]*store.Vec, len(s.slots))
		for i, k := range it.kinds {
			it.out[i] = store.NewVec(k)
		}
	}
	return it, nil
}

type evalIter struct {
	vecIter
	s        *evalSource
	kinds    []value.Kind
	computed bool         // some column runs on the generic kernel
	cols     []*store.Vec // the batch handed out
	out      []*store.Vec // a computed batch's vectors, reused batch to batch
	rows     []value.Value
	sel      []int32
}

func (it *evalIter) Kinds() []value.Kind  { return it.kinds }
func (it *evalIter) Stable() bool         { return !it.computed && it.vecIter.Stable() }
func (it *evalIter) addScanNanos(n int64) { addScanNanos(it.vecIter, n) }

func (it *evalIter) Cols() []*store.Vec {
	if !it.Stable() {
		return nil
	}
	return it.permute(it.vecIter.Cols())
}

// permute points the batch's columns at the input columns they pass.
func (it *evalIter) permute(in []*store.Vec) []*store.Vec {
	for i, slot := range it.s.slots {
		it.cols[i] = in[slot]
	}
	return it.cols
}

// Next passes a batch of plain columns on with its selection; a batch with
// computed columns is gathered into the iterator's own vectors, its
// selection the identity.
func (it *evalIter) Next() ([]*store.Vec, []int32, bool) {
	in, sel, ok := it.vecIter.Next()
	if !ok {
		return nil, nil, false
	}
	if !it.computed {
		return it.permute(in), sel, true
	}
	nc := len(in)
	it.rows = slices.Grow(it.rows[:0], len(sel)*nc)[:len(sel)*nc]
	store.FillRows(in, sel, it.rows, nc)
	for i, slot := range it.s.slots {
		v := it.out[i]
		v.Truncate(0)
		if slot >= 0 {
			v.AppendSel(in[slot], sel)
		} else {
			for k := range sel {
				v.AppendVal(it.s.evals[i](it.rows[k*nc : (k+1)*nc : (k+1)*nc]))
			}
		}
		it.cols[i] = v
	}
	it.sel = identity(it.sel, len(sel))
	return it.cols, it.sel, true
}

// identity returns buf holding 0..n-1.
func identity(buf []int32, n int) []int32 {
	buf = slices.Grow(buf[:0], n)[:n]
	for k := range buf {
		buf[k] = int32(k)
	}
	return buf
}

// --- the root ---

// sinkIter drains the root iterator into the result sink: each non-empty
// batch goes to the sink as (columns, selection). What the sink spends
// gathering the borrowed vectors is part of serving the source's batches,
// so it is routed into the source's scan attribution before Close records
// the observation.
func sinkIter(ctx *qctx, it vecIter, sink Sink) error {
	var gather int64
	for {
		cols, sel, ok := it.Next()
		if !ok {
			break
		}
		if len(sel) == 0 {
			continue
		}
		t0 := time.Now()
		if err := sink.Batch(cols, sel); err != nil {
			return err
		}
		gather += time.Since(t0).Nanoseconds()
		ctx.stats.RowsOut += len(sel)
		ctx.stats.ResultBatches++
	}
	addScanNanos(it, gather)
	return it.Close(ctx)
}
