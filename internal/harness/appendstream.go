package harness

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"recache"
	"recache/internal/cache"
)

// appendStream is the freshness phase of the perf-trajectory report: a
// query swarm replays range selections over a CSV file that a continuous
// appender keeps growing underneath the engine, once with reactive tail
// extension (check-on-access revalidation incrementally extends the cached
// positional maps over just the appended bytes) and once with the
// full-rebuild ablation (every detected append invalidates the dataset's
// entries, so the next miss re-parses the whole file). The appender paces
// itself by workload progress — one batch per fixed number of completed
// queries — so both runs absorb the same number of appends per query and
// the qps ratio is deterministic, not a wall-clock artifact. After the
// swarm drains, a final COUNT(*) must equal every row the appender wrote:
// extension must lose nothing off the tail. The bench gate (cmd/benchdiff)
// tracks both qps values, their ratio, and the phase's tail-extend ratio
// across PRs; in-phase, tail extension must reach at least 3x the
// full-rebuild throughput.
func (r *Runner) appendStream() error {
	const (
		conc        = 8  // query swarm width
		appendEvery = 8  // queries completed per appended batch
		batchRows   = 32 // rows per appended batch
	)
	total := r.nq(1600)
	initial := int(32000 * r.opts.SF / 0.002)
	if initial < 32000 {
		initial = 32000
	}

	// Four disjoint point predicates (qty is uniform on 1..50, so each
	// entry holds ~2% of the file): columnar entries stay small — hits are
	// vectorized and extension replays little — while the rebuild ablation
	// re-tokenizes the whole file per miss. Maintenance cost, not hit cost,
	// is the mode gap being measured.
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"SELECT SUM(price), COUNT(*) FROM stream WHERE qty = %d", 5+12*i)
	}

	r.printf("\nappend stream: %d queries from %d workers over a file growing %d rows per %d queries (%d initial rows)\n",
		total, conc, batchRows, appendEvery, initial)
	r.printf("%16s %14s %12s %18s\n", "mode", "queries/sec", "appends", "tail-extend ratio")

	type outcome struct {
		qps     float64
		appends int64
		stats   cache.Stats
	}
	run := func(mode string) (outcome, error) {
		path := filepath.Join(r.opts.Dir, "append-stream-"+mode+".csv")
		rng := rand.New(rand.NewSource(r.opts.Seed + 9))
		var rows atomic.Int64
		writeBatch := func(f *os.File, n int) error {
			buf := make([]byte, 0, 24*n)
			for i := 0; i < n; i++ {
				id := rows.Add(1)
				buf = append(buf, fmt.Sprintf("%d|%d|%d\n", id, 1+rng.Intn(50), 1+rng.Intn(1000))...)
			}
			_, err := f.Write(buf)
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return outcome{}, err
		}
		if err := writeBatch(f, initial); err != nil {
			return outcome{}, err
		}
		if err := f.Close(); err != nil {
			return outcome{}, err
		}

		eng, err := recache.Open(recache.Config{
			Admission:     "eager",
			Layout:        "columnar",
			FreshnessMode: mode,
		})
		if err != nil {
			return outcome{}, err
		}
		defer eng.Close()
		if err := eng.RegisterCSV("stream", path, "id int, qty int, price int", '|'); err != nil {
			return outcome{}, err
		}
		for _, q := range queries { // warm: build every entry once
			if _, err := eng.Query(q); err != nil {
				return outcome{}, err
			}
		}

		// Continuous appender: runs beside the swarm, appending one batch (a
		// single write of whole newline-terminated lines) each time the swarm
		// completes appendEvery more queries. The swarm in turn gates each
		// query on its batch having landed, so the interleaving is lockstep —
		// without the handshake, a loaded or single-core runner schedules the
		// appender in one late burst, coalescing every append into a single
		// revalidation and measuring nothing.
		af, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return outcome{}, err
		}
		var (
			done    atomic.Int64 // queries the swarm has completed
			appends atomic.Int64
			stop    = make(chan struct{})
			appErr  error
			wgApp   sync.WaitGroup
		)
		wgApp.Add(1)
		go func() {
			defer wgApp.Done()
			defer af.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if done.Load()/appendEvery <= appends.Load() {
					// Spin-yield rather than sleep: the swarm drains queries in
					// microseconds, and a timer wakeup would let the whole run
					// finish before the first batch lands.
					runtime.Gosched()
					continue
				}
				if appErr = writeBatch(af, batchRows); appErr != nil {
					return
				}
				appends.Add(1)
			}
		}()

		// Query swarm: total queries round-robin across conc workers.
		var (
			next     atomic.Int64
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		start := time.Now()
		for g := 0; g < conc; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(total) {
						return
					}
					for appends.Load() < i/appendEvery {
						runtime.Gosched() // wait for this query's batch to land
					}
					if _, err := eng.Query(queries[i%int64(len(queries))]); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					done.Add(1)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(stop)
		wgApp.Wait()
		if firstErr != nil {
			return outcome{}, firstErr
		}
		if appErr != nil {
			return outcome{}, appErr
		}

		// Correctness oracle: the revalidated view must cover every row the
		// appender wrote — nothing lost off the tail, nothing doubled.
		res, err := eng.Query("SELECT COUNT(*) FROM stream")
		if err != nil {
			return outcome{}, err
		}
		if got := res.Rows[0][0]; fmt.Sprint(got) != fmt.Sprint(rows.Load()) {
			return outcome{}, fmt.Errorf("harness: append-stream %s mode: final COUNT(*) = %v, want %d rows",
				mode, got, rows.Load())
		}
		return outcome{
			qps:     float64(total) / elapsed.Seconds(),
			appends: appends.Load(),
			stats:   eng.Manager().Stats(),
		}, nil
	}

	ext, err := run("check-on-access")
	if err != nil {
		return err
	}
	if ext.stats.TailExtensions == 0 {
		return fmt.Errorf("harness: append-stream never extended an entry (%d appends absorbed)", ext.appends)
	}
	reval := ext.stats.TailExtensions + ext.stats.StaleInvalidations
	extendRatio := float64(ext.stats.TailExtensions) / float64(reval)
	r.printf("%16s %14.0f %12d %17.2f\n", "extend", ext.qps, ext.appends, extendRatio)
	r.addPhase(Phase{
		Name:            "append-stream",
		QPS:             ext.qps,
		TailExtendRatio: extendRatio,
		CacheStats:      &ext.stats,
	})

	reb, err := run("invalidate")
	if err != nil {
		return err
	}
	if reb.stats.TailExtensions != 0 || reb.stats.StaleInvalidations == 0 {
		return fmt.Errorf("harness: invalidate ablation extended %d / invalidated %d — ablation not ablating",
			reb.stats.TailExtensions, reb.stats.StaleInvalidations)
	}
	r.printf("%16s %14.0f %12d %17s\n", "rebuild", reb.qps, reb.appends, "-")
	r.printf("extend/rebuild qps ratio: %.1fx\n", ext.qps/reb.qps)
	if ext.qps < 3*reb.qps {
		return fmt.Errorf("harness: tail extension reached only %.2fx the full-rebuild throughput, want >= 3x",
			ext.qps/reb.qps)
	}
	r.addPhase(Phase{
		Name:       "append-stream-rebuild",
		QPS:        reb.qps,
		CacheStats: &reb.stats,
	})
	return nil
}
