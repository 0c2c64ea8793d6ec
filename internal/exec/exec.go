// Package exec is the physical execution engine: it compiles a logical plan
// into one tree of batch sources, specialized to the query and the input
// schemas — the engine-per-query strategy of Proteus, with closure
// composition standing in for LLVM code generation (see DESIGN.md). Every
// operator consumes and produces column batches: typed store.Vec columns
// and a selection vector of the rows that pass. A cache hit reads its
// entry's vectors in place (store.BatchCursor), a miss or a lazy replay
// decodes a chunk of records into leaf vectors (miss.go), flattened rows
// are those vectors expanded by their list lengths, and the result leaves
// through Sink.Batch. Expressions the typed kernels cannot run go through
// one generic kernel that boxes the selected rows and runs the compiled
// expr.Evaluator or expr.Predicate (evalSource, expr.VecFilter).
//
// The operators relevant to ReCache are the materializing miss (cache
// building with reactive admission, §5.2) and CachedScan (cache reuse of a
// Parquet payload or its flattened view, with lazy→eager upgrades and cost
// feedback into the layout advisor); both live in their own files.
//
// Concurrency: RunInto may be called from many goroutines against one shared
// cache manager. Each call compiles its own sources — all mutable execution
// state (admission sampling windows, timers, hash tables, batch buffers)
// lives in per-call iterators and the per-query qctx, so compiled pipelines
// share nothing but the immutable plan inputs, the scan providers, and the
// manager, each of which synchronizes internally. An eager build's helper
// (eagerBuild.start) is joined before RunInto returns.
package exec

import (
	"errors"
	"fmt"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// Deps carries the per-query execution environment.
type Deps struct {
	// Manager is the cache manager, required (RunInto fails without one);
	// a query runs uncached under a manager with cache.Off admission. The
	// manager is shared across concurrent queries: cache scans snapshot
	// entry payloads through it, materializers hand finished builds back
	// through it, and lazy upgrades reserve their slot through it.
	Manager *cache.Manager
	// Needed maps dataset name → the column paths the query references.
	// A present-but-empty slice means "no fields" (e.g. COUNT(*)); a
	// missing key means all fields.
	Needed map[string][]value.Path
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
	// per entry: the operators above a scan run between its batches, so a
	// query over several cached entries charges each entry (and this
	// total) only its own scan cost.
	CacheScanNanos int64
	// LayoutSwitchNanos is time spent deriving flattened views of cache
	// entries.
	LayoutSwitchNanos int64
	// RowsOut counts result rows.
	RowsOut int
	// ResultBatches counts the column batches the root handed to the sink;
	// 0 for an empty result.
	ResultBatches int
}

// Overhead returns the caching overhead fraction t_c / t_o of §5.2.
func (s *QueryStats) Overhead() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.CacheBuildNanos) / float64(s.Wall.Nanoseconds())
}

// qctx is the per-query runtime context threaded through the pipeline.
type qctx struct {
	start  time.Time
	deps   Deps
	stats  *QueryStats
	builds []*eagerBuild // the builds the query started (newEagerBuild)
}

// Sink receives a query's result at the plan root as column batches.
type Sink interface {
	// Batch receives the result rows cols[...][sel[k]], one vector per
	// output column. The vectors are borrowed — from cache entries pinned by
	// the query's transaction, or from an operator's own buffers — and sel
	// is reused between calls: the sink gathers what it keeps before
	// returning, and nothing borrowed may outlive the transaction.
	Batch(cols []*store.Vec, sel []int32) error
}

// RunInto compiles and executes a plan, delivering the result to sink.
func RunInto(root plan.Node, deps Deps, sink Sink) (*QueryStats, error) {
	if deps.Manager == nil {
		return nil, errors.New("exec: no cache manager")
	}
	src, err := compile(root, deps)
	if err != nil {
		return nil, err
	}
	stats := &QueryStats{}
	ctx := &qctx{start: time.Now(), deps: deps, stats: stats}
	it, err := src.open(ctx)
	if err == nil {
		err = sinkIter(ctx, it, sink)
	}
	for _, b := range ctx.builds { // the helpers of builds an error dropped
		b.wait(&stats.CacheBuildNanos)
	}
	stats.Wall = time.Since(ctx.start)
	return stats, err
}

// compile compiles n into the batch source of its rows.
func compile(n plan.Node, deps Deps) (vecSource, error) {
	if spec, pred, scan, ok := rawSelect(n); ok {
		return planMiss(spec, pred, scan, deps, false)
	}
	switch x := n.(type) {
	case *plan.Select:
		child, err := compile(x.Child, deps)
		if err != nil {
			return nil, err
		}
		f, err := expr.CompileVecFilter(x.Pred, x.Child.OutSchema())
		if err != nil {
			return nil, err
		}
		return withFilter(child, f), nil
	case *plan.Unnest:
		spec, pred, scan, ok := rawSelect(x.Child)
		if !ok {
			return nil, fmt.Errorf("exec: unnest over %s, want a select over a raw scan", x.Child.Canonical())
		}
		return planMiss(spec, pred, scan, deps, true)
	case *plan.Project:
		child, err := compile(x.Child, deps)
		if err != nil {
			return nil, err
		}
		return newEvalSource(child, x.Child.OutSchema(), x.Exprs)
	case *plan.Join:
		return compileJoin(x, deps)
	case *plan.Aggregate:
		return compileAggregate(x, deps)
	case *plan.CachedScan:
		return compileCachedScan(x)
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
