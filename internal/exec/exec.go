// Package exec is the physical execution engine: it compiles logical plans
// into push-based pipelines of Go closures specialized to the query and the
// input schemas — the engine-per-query strategy of Proteus, with closure
// composition standing in for LLVM code generation (see DESIGN.md).
//
// The operators relevant to ReCache are Materialize (cache building with
// reactive admission, §5.2) and CachedScan (cache reuse across the three
// layouts, with lazy→eager upgrades and cost feedback into the layout
// advisor); both live in their own files.
//
// Concurrency: RunInto may be called from many goroutines against one shared
// cache manager. Each call compiles its own closure pipeline — all mutable
// execution state (admission sampling windows, timers, hash tables, row
// buffers) lives in per-call closures and the per-query qctx, so compiled
// pipelines share nothing but the immutable plan inputs, the scan
// providers, and the manager, each of which synchronizes internally. An
// eager build's helper (eagerBuild.start) is joined before RunInto returns.
package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// Deps carries the per-query execution environment.
type Deps struct {
	// Manager is the cache manager; nil runs without any caching. The
	// manager is shared across concurrent queries: cache scans snapshot
	// entry payloads through it, materializers hand finished builds back
	// through it, and lazy upgrades reserve their slot through it.
	Manager *cache.Manager
	// Needed maps dataset name → the column paths the query references.
	// A present-but-empty slice means "no fields" (e.g. COUNT(*)); a
	// missing key means all fields.
	Needed map[string][]value.Path
	// DisableVectorized forces every cache scan onto the row-at-a-time
	// path (pre-vectorization behaviour; ablation and benchmarking). Joins
	// then take the boxed row join: a join cannot batch without batch
	// inputs. A raw miss still decodes its chunks typed — its route follows
	// from the provider — and boxes their rows at the batch→row boundary.
	DisableVectorized bool
	// DisablePushdown keeps scan predicates above parsing: raw scans decode
	// every needed field of every record and the filter runs afterwards
	// (pre-pushdown behaviour; ablation and benchmarking).
	DisablePushdown bool
}

// QueryStats reports per-query cost accounting for the harness.
type QueryStats struct {
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// CacheBuildNanos is the caching overhead the query waited for (t_c).
	CacheBuildNanos int64
	// CacheScanNanos is time spent scanning in-memory caches, attributed
	// per entry: downstream operator work running inside a scan's emit
	// path is sampled out, so a query over several cached entries charges
	// each entry (and this total) only its own scan cost.
	CacheScanNanos int64
	// LayoutSwitchNanos is time spent converting cache layouts.
	LayoutSwitchNanos int64
	// RowsOut counts result rows.
	RowsOut int
	// ResultBatches counts the column batches the root handed to the sink;
	// 0 when the result left through the row sink (or was empty).
	ResultBatches int
}

// Overhead returns the caching overhead fraction t_c / t_o of §5.2.
func (s *QueryStats) Overhead() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.CacheBuildNanos) / float64(s.Wall.Nanoseconds())
}

// emitFn receives one row; the slice is reused by most operators.
type emitFn func(row []value.Value) error

// runFn drives a compiled operator subtree, pushing rows into out.
type runFn func(ctx *qctx, out emitFn) error

// qctx is the per-query runtime context threaded through the pipeline.
type qctx struct {
	start       time.Time
	deps        Deps
	stats       *QueryStats
	curOffset   int64         // byte offset of the current raw record
	curComplete func() error  // parses the current record's skipped fields
	builds      []*eagerBuild // the builds the query started (newEagerBuild)
}

// Sink receives a query's result at the plan root, in whichever of two
// shapes the root produces this execution. A batch-native root — a Project
// of plain column references, or a bare [Select*] chain, over a vectorized
// cache scan, a lazy replay, a join or a flat raw-scan miss — hands over its
// column batches; every other root (aggregates, nested data,
// DisableVectorized, a source that cannot serve batches right now, a
// provider without a typed kernel) emits rows. One execution uses one
// shape only.
type Sink interface {
	// Row receives one result row. The slice is reused between calls; a
	// sink that retains the row copies it.
	Row(row []value.Value) error
	// Batch receives the result rows cols[...][sel[k]], one vector per
	// output column. The vectors are borrowed — from cache entries pinned by
	// the query's transaction, or from a join's gathered output — and sel is
	// reused between calls: the sink gathers what it keeps before returning,
	// and nothing borrowed may outlive the transaction.
	Batch(cols []*store.Vec, sel []int32) error
}

// RunInto compiles and executes a plan, delivering the result to sink.
func RunInto(root plan.Node, deps Deps, sink Sink) (*QueryStats, error) {
	// A Project root's row flavor is the plain row projection: the batch
	// flavor compile would wrap around it is the root exit below.
	var run runFn
	var err error
	if pr, ok := root.(*plan.Project); ok {
		run, err = compileProject(pr, deps)
	} else {
		run, err = compile(root, deps)
	}
	if err != nil {
		return nil, err
	}
	src, proj := rootSource(root, deps)
	stats := &QueryStats{}
	ctx := &qctx{start: time.Now(), deps: deps, stats: stats}
	var it vecIter
	if src != nil {
		it, _ = src.open(ctx)
	}
	if it != nil {
		err = sinkIter(ctx, it, proj, sink)
	} else {
		err = run(ctx, func(row []value.Value) error {
			stats.RowsOut++
			return sink.Row(row)
		})
	}
	for _, b := range ctx.builds { // the helpers of builds an error dropped
		b.wait(&stats.CacheBuildNanos)
	}
	stats.Wall = time.Since(ctx.start)
	if err != nil {
		return stats, err
	}
	return stats, nil
}

func compile(n plan.Node, deps Deps) (runFn, error) {
	// A flat raw select over a typed kernel serves batches whoever consumes
	// it: under a row operator its rows leave at the batch→row boundary.
	if src, ok, err := flatMiss(n, deps); err != nil || ok {
		if err != nil {
			return nil, err
		}
		return func(ctx *qctx, out emitFn) error {
			it, _ := src.open(ctx)
			return emitIter(ctx, it, nil, out)
		}, nil
	}
	switch x := n.(type) {
	case *plan.Scan:
		return compileScan(x, deps)
	case *plan.Select:
		return compileSelect(x, deps)
	case *plan.Unnest:
		return compileUnnest(x, deps)
	case *plan.Project:
		rowFn, err := compileProject(x, deps)
		if err != nil {
			return nil, err
		}
		if vfn, ok := planVecProject(x, deps, rowFn); ok {
			return vfn, nil
		}
		return rowFn, nil
	case *plan.Join:
		return compileJoinAuto(x, deps)
	case *plan.Aggregate:
		rowFn, err := compileAggregate(x, deps)
		if err != nil {
			return nil, err
		}
		if vfn, ok := planVecAggregate(x, deps, rowFn); ok {
			return vfn, nil
		}
		return rowFn, nil
	case *plan.Materialize:
		return compileMaterialize(x, deps)
	case *plan.CachedScan:
		return compileCachedScanAuto(x, deps)
	}
	return nil, fmt.Errorf("exec: cannot compile %T", n)
}

func scanNeeded(s *plan.Scan, deps Deps) []value.Path {
	needed, ok := deps.Needed[s.DS.Name]
	if !ok {
		needed = nil // all fields
	} else if needed == nil {
		needed = []value.Path{}
	}
	return needed
}

func compileScan(s *plan.Scan, deps Deps) (runFn, error) {
	needed := scanNeeded(s, deps)
	prov := s.DS.Provider
	return func(ctx *qctx, out emitFn) error {
		return prov.Scan(needed, func(rec value.Value, off int64, complete func() error) error {
			ctx.curOffset = off
			ctx.curComplete = complete
			return out(rec.L)
		})
	}, nil
}

// compileScanPushdown fuses a Select sitting directly on a raw Scan into
// one pushdown scan: the predicate's pushable conjuncts are evaluated by
// the provider on the raw bytes and only the residual runs in the pipeline.
// ok is false when nothing is pushable (or pushdown is disabled); the
// caller then compiles the plain Select.
func compileScanPushdown(s *plan.Scan, pred expr.Expr, deps Deps) (runFn, bool, error) {
	if deps.DisablePushdown {
		return nil, false, nil
	}
	pd, residual := expr.ExtractPushdown(pred, s.DS.Schema())
	if pd == nil {
		return nil, false, nil
	}
	res, err := expr.CompilePredicate(residual, s.OutSchema())
	if err != nil {
		return nil, false, err
	}
	needed := scanNeeded(s, deps)
	prov := s.DS.Provider
	mgr := deps.Manager
	return func(ctx *qctx, out emitFn) error {
		emit := func(rec value.Value, off int64, complete func() error) error {
			ctx.curOffset = off
			ctx.curComplete = complete
			if !res(rec.L) {
				return nil
			}
			return out(rec.L)
		}
		skipped, below, err := pushScan(prov, pd, needed, emit)
		// A row-tested fallback decoded every record: not a pushdown scan.
		if err == nil && below && mgr != nil {
			mgr.NotePushdown(pd.NumConjuncts(), skipped)
		}
		return err
	}, true, nil
}

// pushScan scans prov filtered by pd, below the parse when the provider
// implements plan.PushdownScanner (below reports which path ran) and by
// re-testing each decoded record otherwise; either way pd's tested columns
// are folded into the needed set so the decoded rows carry them. It returns
// the number of records filtered out before reaching fn.
func pushScan(prov plan.ScanProvider, pd *expr.Pushdown, needed []value.Path, fn plan.ScanFunc) (skipped int64, below bool, err error) {
	needed = unionPaths(needed, pd.Cols())
	if ps, ok := prov.(plan.PushdownScanner); ok {
		skipped, err = ps.ScanPushdown(pd, needed, fn)
		return skipped, true, err
	}
	err = prov.Scan(needed, func(rec value.Value, off int64, complete func() error) error {
		if !pd.TestRow(rec.L) {
			skipped++
			return nil
		}
		return fn(rec, off, complete)
	})
	return skipped, false, err
}

// unionPaths adds extra paths to a needed set, preserving the nil (all
// fields) convention and deduplicating.
func unionPaths(needed []value.Path, extra []value.Path) []value.Path {
	if needed == nil {
		return nil
	}
	seen := make(map[string]bool, len(needed))
	for _, p := range needed {
		seen[p.String()] = true
	}
	out := needed
	for _, p := range extra {
		if k := p.String(); !seen[k] {
			seen[k] = true
			out = append(out[:len(out):len(out)], p)
		}
	}
	return out
}

func compileSelect(s *plan.Select, deps Deps) (runFn, error) {
	if scan, ok := s.Child.(*plan.Scan); ok {
		fn, ok, err := compileScanPushdown(scan, s.Pred, deps)
		if err != nil {
			return nil, err
		}
		if ok {
			return fn, nil
		}
	}
	child, err := compile(s.Child, deps)
	if err != nil {
		return nil, err
	}
	pred, err := expr.CompilePredicate(s.Pred, s.Child.OutSchema())
	if err != nil {
		return nil, err
	}
	return func(ctx *qctx, out emitFn) error {
		return child(ctx, func(row []value.Value) error {
			if !pred(row) {
				return nil
			}
			return out(row)
		})
	}, nil
}

func compileProject(p *plan.Project, deps Deps) (runFn, error) {
	child, err := compile(p.Child, deps)
	if err != nil {
		return nil, err
	}
	evals := make([]expr.Evaluator, len(p.Exprs))
	for i, e := range p.Exprs {
		ev, err := expr.Compile(e, p.Child.OutSchema())
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}
	return func(ctx *qctx, out emitFn) error {
		buf := make([]value.Value, len(evals))
		return child(ctx, func(row []value.Value) error {
			for i, ev := range evals {
				buf[i] = ev(row)
			}
			return out(buf)
		})
	}, nil
}

// joinKey normalizes a join key value so Int/Float keys hash consistently.
type joinKeyFn func(v value.Value) (any, bool)

func makeJoinKey(lt, rt *value.Type) joinKeyFn {
	bothInt := lt.Kind == value.Int && rt.Kind == value.Int
	numeric := lt.IsNumeric() && rt.IsNumeric()
	return func(v value.Value) (any, bool) {
		if v.Kind == value.Null {
			return nil, false
		}
		switch {
		case bothInt:
			return v.I, true
		case numeric:
			return v.AsFloat(), true
		case v.Kind == value.String:
			return v.S, true
		case v.Kind == value.Bool:
			return v.B, true
		default:
			return v.String(), true
		}
	}
}

// joinParts are the compiled pieces every join flavor shares: the two
// child pipelines, the key evaluators, and the row-path key normalizer.
type joinParts struct {
	left, right runFn
	lkey, rkey  expr.Evaluator
	norm        joinKeyFn
	ln, rn      int
}

func compileJoinParts(j *plan.Join, deps Deps) (*joinParts, error) {
	left, err := compile(j.Left, deps)
	if err != nil {
		return nil, err
	}
	right, err := compile(j.Right, deps)
	if err != nil {
		return nil, err
	}
	lkey, err := expr.Compile(j.LeftKey, j.Left.OutSchema())
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(j.RightKey, j.Right.OutSchema())
	if err != nil {
		return nil, err
	}
	lt, _ := j.LeftKey.Type(j.Left.OutSchema())
	rt, _ := j.RightKey.Type(j.Right.OutSchema())
	return &joinParts{
		left: left, right: right,
		lkey: lkey, rkey: rkey,
		norm: makeJoinKey(lt, rt),
		ln:   len(j.Left.OutSchema().Fields),
		rn:   len(j.Right.OutSchema().Fields),
	}, nil
}

// rowArena hands out stable copies of retained build rows from large
// shared chunks: one allocation per arenaChunkVals boxed values instead of
// one per row, which is what the join build phase used to pay.
type rowArena struct {
	chunk []value.Value
}

// arenaChunkVals is the arena chunk size in values (~256KB of boxed
// values): big enough to amortize allocation, small enough that a tiny
// build side doesn't overcommit.
const arenaChunkVals = 8192

// save copies row into the arena and returns a stable full-sliced view
// (capacity pinned, so later saves can never alias it).
func (a *rowArena) save(row []value.Value) []value.Value {
	if len(a.chunk)+len(row) > cap(a.chunk) {
		n := arenaChunkVals
		if len(row) > n {
			n = len(row)
		}
		a.chunk = make([]value.Value, 0, n)
	}
	off := len(a.chunk)
	a.chunk = append(a.chunk, row...)
	return a.chunk[off:len(a.chunk):len(a.chunk)]
}

// rowJoin is the boxed row-at-a-time hash join: the compile-time flavor
// for non-vectorizable joins and the run-time fallback when neither input
// serves batches (see joinvec.go for the batch flavors).
func (p *joinParts) rowJoin() runFn {
	return func(ctx *qctx, out emitFn) error {
		// Build phase: hash the left input. The emit callback's row slice
		// is reused by upstream operators, so retained rows are copied —
		// through the arena, not one heap allocation per row.
		table := make(map[any][][]value.Value)
		var arena rowArena
		if err := p.left(ctx, func(row []value.Value) error {
			k, ok := p.norm(p.lkey(row))
			if !ok {
				return nil
			}
			table[k] = append(table[k], arena.save(row))
			return nil
		}); err != nil {
			return err
		}
		// Probe phase: stream the right input. buf is reused across emits,
		// relying on the emitFn no-retain contract: a consumer that keeps
		// a row (a collecting sink, a parent join's build) copies it.
		buf := make([]value.Value, p.ln+p.rn)
		return p.right(ctx, func(row []value.Value) error {
			k, ok := p.norm(p.rkey(row))
			if !ok {
				return nil
			}
			for _, lrow := range table[k] {
				copy(buf, lrow)
				copy(buf[p.ln:], row)
				if err := out(buf); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// aggState accumulates one aggregate function.
type aggState struct {
	fn    plan.AggFunc
	count int64
	sum   float64
	min   value.Value
	max   value.Value
	any   bool
}

func (a *aggState) update(v value.Value, hasArg bool) {
	if hasArg && v.Kind == value.Null {
		return
	}
	a.count++
	switch a.fn {
	case plan.AggSum, plan.AggAvg:
		a.sum += v.AsFloat()
	case plan.AggMin:
		if !a.any || v.Compare(a.min) < 0 {
			a.min = v
		}
	case plan.AggMax:
		if !a.any || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
	a.any = true
}

func (a *aggState) result() value.Value {
	switch a.fn {
	case plan.AggCount:
		return value.VInt(a.count)
	case plan.AggSum:
		if !a.any {
			return value.VNull
		}
		return value.VFloat(a.sum)
	case plan.AggAvg:
		if a.count == 0 {
			return value.VNull
		}
		return value.VFloat(a.sum / float64(a.count))
	case plan.AggMin:
		if !a.any {
			return value.VNull
		}
		return a.min
	case plan.AggMax:
		if !a.any {
			return value.VNull
		}
		return a.max
	}
	return value.VNull
}

func compileAggregate(a *plan.Aggregate, deps Deps) (runFn, error) {
	child, err := compile(a.Child, deps)
	if err != nil {
		return nil, err
	}
	in := a.Child.OutSchema()
	argEvals := make([]expr.Evaluator, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Arg != nil {
			ev, err := expr.Compile(s.Arg, in)
			if err != nil {
				return nil, err
			}
			argEvals[i] = ev
		}
	}
	groupEvals := make([]expr.Evaluator, len(a.GroupBy))
	for i, g := range a.GroupBy {
		ev, err := expr.Compile(g, in)
		if err != nil {
			return nil, err
		}
		groupEvals[i] = ev
	}
	specs := a.Aggs

	newStates := func() []aggState {
		st := make([]aggState, len(specs))
		for i := range st {
			st[i].fn = specs[i].Func
		}
		return st
	}
	updateStates := func(st []aggState, row []value.Value) {
		for i := range st {
			if argEvals[i] == nil {
				st[i].update(value.VNull, false)
			} else {
				st[i].update(argEvals[i](row), true)
			}
		}
	}

	if len(groupEvals) == 0 {
		return func(ctx *qctx, out emitFn) error {
			st := newStates()
			if err := child(ctx, func(row []value.Value) error {
				updateStates(st, row)
				return nil
			}); err != nil {
				return err
			}
			outRow := make([]value.Value, len(st))
			for i := range st {
				outRow[i] = st[i].result()
			}
			return out(outRow)
		}, nil
	}

	type group struct {
		keys   []value.Value
		states []aggState
	}
	return func(ctx *qctx, out emitFn) error {
		groups := make(map[string]*group)
		var keyBuf strings.Builder
		if err := child(ctx, func(row []value.Value) error {
			keyBuf.Reset()
			keys := make([]value.Value, len(groupEvals))
			for i, ev := range groupEvals {
				keys[i] = ev(row)
				keyBuf.WriteString(keys[i].String())
				keyBuf.WriteByte(0)
			}
			k := keyBuf.String()
			g, ok := groups[k]
			if !ok {
				g = &group{keys: keys, states: newStates()}
				groups[k] = g
			}
			updateStates(g.states, row)
			return nil
		}); err != nil {
			return err
		}
		// Deterministic output order.
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		outRow := make([]value.Value, len(groupEvals)+len(specs))
		for _, k := range keys {
			g := groups[k]
			copy(outRow, g.keys)
			for i := range g.states {
				outRow[len(groupEvals)+i] = g.states[i].result()
			}
			if err := out(outRow); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
