package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"recache"
	"recache/internal/cache"
	"recache/internal/datagen"
)

// Parallel is the perf-trajectory report (recache-bench -parallel): the
// phases below, in this order, for the given goroutine counts. It is not a
// paper figure — the paper evaluates ReCache single-threaded. Each phase
// stands alone; the harness tests run them singly.
func (r *Runner) Parallel(workers []int) error {
	if len(workers) == 0 {
		workers = []int{1, 4, 16}
	}
	paths, err := r.ensureTPCH()
	if err != nil {
		return err
	}
	for _, phase := range []func() error{
		func() error { return r.hitThroughput(paths, workers) },
		func() error { return r.coldShared(paths, workers) },
		func() error { return r.pushdownCold(paths) },
		func() error { return r.joinHot(paths) },
		func() error { return r.memoryPressure(paths) },
		func() error { return r.serverLoad(paths) },
		func() error { return r.serverColdShared(paths) },
		func() error { return r.shardScale(paths) },
		func() error { return r.shardColdFlight(paths) },
		r.appendStream,
		r.chaosFailover,
	} {
		if err := phase(); err != nil {
			return err
		}
	}
	return nil
}

// hitThroughput measures aggregate query throughput of the shared-cache
// engine under concurrent load: a cache-hit-heavy workload (a fixed set of
// range selections, warmed once) is replayed from N goroutines against one
// engine, for each N in workers. It prints queries/sec per worker count
// and the speedup over the single-goroutine baseline. It is the regression
// harness for the concurrent-execution refactor (see DESIGN.md,
// "Concurrency model"): with the engine-wide query lock gone, aggregate
// throughput should scale with goroutines up to the core count.
func (r *Runner) hitThroughput(paths *datagen.TPCHPaths, workers []int) error {
	eng := newEngine(cache.Config{Admission: cache.AlwaysEager})
	if err := registerTPCH(eng, paths, false); err != nil {
		return err
	}
	// A fixed pool of overlapping range queries: after one warm pass every
	// replay is an exact cache hit, so the measured path is lookup + cache
	// scan + aggregation — the hot path concurrency must not serialize.
	var queries []string
	for i := 0; i < 16; i++ {
		lo := 1 + (i*3)%40
		hi := lo + 8
		queries = append(queries,
			fmt.Sprintf("SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity BETWEEN %d AND %d", lo, hi))
	}
	for _, q := range queries {
		if _, err := eng.Query(q); err != nil {
			return err
		}
	}

	total := r.nq(2000)
	r.printf("concurrent throughput: %d cache-hit queries per worker count (shared engine)\n", total)
	r.printf("%12s %14s %10s\n", "goroutines", "queries/sec", "speedup")
	var base float64
	for _, w := range workers {
		qps, err := replayParallel(eng, queries, total, w)
		if err != nil {
			return err
		}
		if base == 0 {
			base = qps
		}
		r.printf("%12d %14.0f %9.2fx\n", w, qps, qps/base)
		stats := eng.Manager().Stats()
		r.addPhase(Phase{
			Name:       "hit-throughput",
			Goroutines: w,
			QPS:        qps,
			CacheStats: &stats,
		})
	}
	return nil
}

// coldShared is the miss-path half of the concurrency harness: for each
// worker count it fires W concurrent *identical cold* queries at a fresh
// engine and reports how many raw-file parses the burst cost. Without work
// sharing every miss parses the file (W parses per burst); with the
// shared-scan coordinator the first burst typically pays two (one
// in-flight private scan plus one shared cycle for everyone who piled up
// behind it) and later bursts — batched inside the window by burst
// memory — pay one.
func (r *Runner) coldShared(paths *datagen.TPCHPaths, workers []int) error {
	r.printf("\nshared cold scans: raw lineitem parses per burst of W concurrent identical cold queries\n")
	r.printf("(was W parses per burst before work sharing)\n")
	r.printf("%12s %14s %14s %14s %16s\n", "goroutines", "burst1 parses", "burst2 parses", "shared cycles", "consumers served")
	for _, w := range workers {
		eng := newEngine(cache.Config{Admission: cache.AlwaysEager})
		if err := registerTPCH(eng, paths, false); err != nil {
			return err
		}
		// Two bursts on disjoint predicates: the first establishes the
		// coordinator's burst memory, the second shows the steady state.
		b1, err := RunBurst(eng, "lineitem", "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 5", w)
		if err != nil {
			return err
		}
		b2, err := RunBurst(eng, "lineitem", "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 10 AND 14", w)
		if err != nil {
			return err
		}
		st := eng.Manager().Stats()
		r.printf("%12d %14d %14d %14d %16d\n", w, b1, b2, st.SharedScans, st.SharedConsumers)
		r.addPhase(Phase{
			Name:         "cold-shared",
			Goroutines:   w,
			Burst1Parses: b1,
			Burst2Parses: b2,
			CacheStats:   &st,
		})
	}
	return nil
}

// RunBurst fires w concurrent copies of one query (start-barrier released)
// and returns how many raw scans of table the burst cost. It is exported
// so BenchmarkSharedColdScans measures bursts the same way the harness
// reports them.
func RunBurst(eng *recache.Engine, table, query string, w int) (int64, error) {
	before := eng.RawScans(table)
	if before < 0 {
		return 0, fmt.Errorf("harness: table %q is not registered or its provider does not count raw scans", table)
	}
	start := make(chan struct{})
	errs := make([]error, w)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			_, errs[g] = eng.Query(query)
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return eng.RawScans(table) - before, nil
}

// replayParallel runs total queries round-robin from the pool across w
// goroutines and returns the aggregate queries/sec.
func replayParallel(eng *recache.Engine, queries []string, total, w int) (float64, error) {
	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				if _, err := eng.Query(queries[i%int64(len(queries))]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(total) / elapsed.Seconds(), nil
}
