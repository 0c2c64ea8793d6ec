package harness

import (
	"fmt"
	"time"

	"recache"
	"recache/internal/datagen"
)

// joinHot is the join half of the perf-trajectory report: a selective
// lineitem ⋈ orders aggregation replayed against warmed eager caches on
// two engines — the batch-native hash join on and off — reporting
// queries/sec each. Every replay is a pair of exact cache hits feeding the
// join, so the measured path is exactly the flavor split: typed build +
// batch probe + gathered batches into a vectorized aggregate, versus the
// boxed row join over the same vectorized scans. The bench gate
// (cmd/benchdiff) tracks both qps values and their ratio across PRs.
func (r *Runner) joinHot(paths *datagen.TPCHPaths) error {
	q := "SELECT SUM(l_extendedprice), SUM(o_totalprice), COUNT(*) " +
		"FROM lineitem JOIN orders ON l_orderkey = o_orderkey " +
		"WHERE l_quantity BETWEEN 10 AND 40"
	total := r.nq(400)
	r.printf("\nhot join throughput: %d cache-hit join queries, vectorized join on vs off\n", total)
	r.printf("%12s %14s %18s\n", "vec join", "queries/sec", "vectorized joins")
	for _, disabled := range []bool{false, true} {
		eng, err := recache.Open(recache.Config{
			Admission: "eager", Layout: "columnar",
			DisableVectorizedJoins: disabled,
		})
		if err != nil {
			return err
		}
		if err := eng.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
			return err
		}
		if err := eng.RegisterCSV("orders", paths.Orders, datagen.OrdersSchema, '|'); err != nil {
			return err
		}
		if _, err := eng.Query(q); err != nil { // warm: build both entries
			return err
		}
		start := time.Now()
		for i := 0; i < total; i++ {
			if _, err := eng.Query(q); err != nil {
				return err
			}
		}
		qps := float64(total) / time.Since(start).Seconds()
		name, mode := "join-hot", "on"
		if disabled {
			name, mode = "join-hot-off", "off"
		}
		stats := eng.Manager().Stats()
		r.printf("%12s %14.0f %18d\n", mode, qps, stats.VectorizedJoins)
		if !disabled && stats.VectorizedJoins < int64(total) {
			return fmt.Errorf("harness: join phase ran %d vectorized joins, want >= %d",
				stats.VectorizedJoins, total)
		}
		r.addPhase(Phase{
			Name:       name,
			QPS:        qps,
			CacheStats: &stats,
		})
	}
	return nil
}
