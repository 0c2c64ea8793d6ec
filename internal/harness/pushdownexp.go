package harness

import (
	"fmt"
	"time"

	"recache"
	"recache/internal/datagen"
)

// pushdownCold is the cold-path half of the perf-trajectory report: a
// ~1%-selective aggregation over lineitem runs with caching off (every
// query pays a full raw scan, positional map warmed) on two engines —
// predicate pushdown on and off — reporting queries/sec each and, for the
// pushdown engine, the early-skip ratio. The bench gate (cmd/benchdiff)
// tracks the qps of both phases and the skip ratio across PRs.
func (r *Runner) pushdownCold(paths *datagen.TPCHPaths) error {
	hi := int(r.opts.SF*1_500_000) / 100 // ~1% of the dense l_orderkey range
	if hi < 1 {
		hi = 1
	}
	q := fmt.Sprintf("SELECT SUM(l_extendedprice), SUM(l_quantity), COUNT(*) "+
		"FROM lineitem WHERE l_orderkey BETWEEN 1 AND %d", hi)
	total := r.nq(60)
	r.printf("\npushdown cold scans: %d selective cold queries (caching off), pushdown on vs off\n", total)
	r.printf("%12s %14s %16s\n", "pushdown", "queries/sec", "skipped/records")
	for _, disabled := range []bool{false, true} {
		eng, err := recache.Open(recache.Config{Admission: "off", DisablePushdown: disabled})
		if err != nil {
			return err
		}
		if err := eng.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
			return err
		}
		// Warm the positional map and learn the record count.
		cnt, err := eng.Query("SELECT COUNT(*) FROM lineitem")
		if err != nil {
			return err
		}
		nRecs := cnt.Rows[0][0].(int64)
		start := time.Now()
		for i := 0; i < total; i++ {
			if _, err := eng.Query(q); err != nil {
				return err
			}
		}
		qps := float64(total) / time.Since(start).Seconds()
		name := "pushdown-cold"
		ratio := "-"
		var skipped, rows int64
		if disabled {
			name = "pushdown-cold-off"
		} else {
			scans, sk := eng.RawPushdownStats("lineitem")
			skipped, rows = sk, scans*nRecs
			ratio = fmt.Sprintf("%d/%d", skipped, rows)
		}
		mode := "on"
		if disabled {
			mode = "off"
		}
		r.printf("%12s %14.0f %16s\n", mode, qps, ratio)
		stats := eng.Manager().Stats()
		r.addPhase(Phase{
			Name:         name,
			QPS:          qps,
			SkippedEarly: skipped,
			RowsScanned:  rows,
			CacheStats:   &stats,
		})
	}
	return nil
}
