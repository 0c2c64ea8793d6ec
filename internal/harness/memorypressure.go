package harness

import (
	"fmt"
	"path/filepath"
	"time"

	"recache"
	"recache/internal/datagen"
)

// memoryPressure is the tiered-cache phase of the perf-trajectory report:
// a working set of disjoint lineitem range entries ~10× the RAM budget,
// replayed round-robin so entries continually demote to the disk tier and
// re-admit on their next hit, against a no-cache baseline running the same
// workload as raw scans. A disk hit costs one spill-file read instead of a
// raw re-scan, so the tiered engine must stay well ahead even though
// almost nothing fits in RAM. The bench gate (cmd/benchdiff) tracks both
// qps values, their ratio, and the phase's disk-hit ratio across PRs.
func (r *Runner) memoryPressure(paths *datagen.TPCHPaths) error {
	// Ten disjoint l_quantity ranges partition lineitem (quantity is
	// uniform on 1..50): one cache entry ≈ one tenth of the table.
	const k = 10
	queries := make([]string, k)
	for i := range queries {
		lo := 1 + 5*i
		queries[i] = fmt.Sprintf(
			"SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity BETWEEN %d AND %d",
			lo, lo+4)
	}
	newEng := func(cfg recache.Config) (*recache.Engine, error) {
		eng, err := recache.Open(cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
			return nil, err
		}
		return eng, nil
	}

	// Probe pass: size the working set with an unlimited-RAM engine.
	probe, err := newEng(recache.Config{Admission: "eager", Layout: "columnar"})
	if err != nil {
		return err
	}
	for _, q := range queries {
		if _, err := probe.Query(q); err != nil {
			return err
		}
	}
	workingSet := probe.CacheStats().TotalBytes
	budget := workingSet / 10
	if budget <= 0 {
		budget = 1
	}

	total := r.nq(200)
	r.printf("\nmemory pressure: %d queries round-robin over %d entries, RAM budget = working set / 10\n", total, k)
	r.printf("(working set %d bytes, budget %d bytes)\n", workingSet, budget)
	r.printf("%16s %14s %16s\n", "engine", "queries/sec", "disk-hit ratio")

	tiered, err := newEng(recache.Config{
		Admission:     "eager",
		Layout:        "columnar",
		CacheCapacity: budget,
		SpillDir:      filepath.Join(r.opts.Dir, "spill"),
	})
	if err != nil {
		return err
	}
	for _, q := range queries { // warm: build every entry once (most spill)
		if _, err := tiered.Query(q); err != nil {
			return err
		}
	}
	before := tiered.Manager().Stats()
	start := time.Now()
	for i := 0; i < total; i++ {
		if _, err := tiered.Query(queries[i%k]); err != nil {
			return err
		}
	}
	tieredQPS := float64(total) / time.Since(start).Seconds()
	stats := tiered.Manager().Stats()
	diskHitRatio := float64(stats.DiskHits-before.DiskHits) /
		float64(stats.Queries-before.Queries)
	r.printf("%16s %14.0f %15.2f\n", "tiered", tieredQPS, diskHitRatio)
	if stats.Spills == 0 || stats.DiskHits == 0 {
		return fmt.Errorf("harness: memory-pressure phase never exercised the disk tier: %d spills, %d disk hits",
			stats.Spills, stats.DiskHits)
	}
	r.addPhase(Phase{
		Name:         "memory-pressure",
		QPS:          tieredQPS,
		DiskHitRatio: diskHitRatio,
		CacheStats:   &stats,
	})

	// Baseline: the same workload with caching off — every query re-scans
	// and re-parses the raw file, which is what a disk hit avoids.
	raw, err := newEng(recache.Config{Admission: "off"})
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < total; i++ {
		if _, err := raw.Query(queries[i%k]); err != nil {
			return err
		}
	}
	rawQPS := float64(total) / time.Since(start).Seconds()
	rawStats := raw.Manager().Stats()
	r.printf("%16s %14.0f %15s\n", "no-cache", rawQPS, "-")
	r.printf("tiered/no-cache qps ratio: %.1fx\n", tieredQPS/rawQPS)
	if tieredQPS <= rawQPS {
		return fmt.Errorf("harness: disk tier slower than raw re-scans (%.0f vs %.0f qps)",
			tieredQPS, rawQPS)
	}
	r.addPhase(Phase{
		Name:       "memory-pressure-raw",
		QPS:        rawQPS,
		CacheStats: &rawStats,
	})
	return nil
}
