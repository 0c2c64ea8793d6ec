package harness

import (
	"fmt"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/datagen"
)

// shardScale is the fleet phase of the perf-trajectory report: the same
// working set of disjoint lineitem range entries is served by rendezvous-
// routed fleets of 1, 2, and 4 recached shards, each shard capped at HALF
// the working set. One shard therefore cannot hold the workload — half of
// every round-robin pass re-scans the raw file — while four shards hold
// all of it, so aggregate hit throughput must scale with fleet size from
// added CAPACITY, not added cores. The bench gate (cmd/benchdiff) tracks
// each fleet size's qps, the 4-vs-1 qps ratio, and the fleet-wide raw
// parse counts across PRs; in-phase, 4 shards must reach at least 2x the
// 1-shard throughput and strictly fewer raw parses.
//
// A second probe drives a 16-router cold burst at a fresh fleet: every
// router hashes the query to the same owner, whose shared-scan machinery
// collapses the burst into one raw parse fleet-wide — remote routing plus
// local work sharing end to end.
func (r *Runner) shardScale(paths *datagen.TPCHPaths) error {
	// Sixteen disjoint l_quantity ranges partition lineitem (quantity is
	// uniform on 1..50): one cache entry ≈ one sixteenth of the table, and
	// sixteen keys spread over four shards leave no shard empty.
	const k = 16
	queries := make([]string, k)
	for i := range queries {
		lo := 1 + 3*i
		queries[i] = fmt.Sprintf(
			"SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity BETWEEN %d AND %d",
			lo, lo+2)
	}

	// Probe pass: size the working set with an unlimited-RAM engine.
	probe, err := recache.Open(recache.Config{Admission: "eager", Layout: "columnar"})
	if err != nil {
		return err
	}
	if err := probe.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
		return err
	}
	for _, q := range queries {
		if _, err := probe.Query(q); err != nil {
			return err
		}
	}
	workingSet := probe.CacheStats().TotalBytes
	probe.Close()
	perShard := workingSet / 2
	if perShard <= 0 {
		perShard = 1
	}

	total := r.nq(1200)
	const conc = 8
	r.printf("\nshard scale: %d queries over %d entries via rendezvous-routed fleets, per-shard RAM budget = working set / 2\n", total, k)
	r.printf("(working set %d bytes, per-shard budget %d bytes, %d routers)\n", workingSet, perShard, conc)
	r.printf("%8s %14s %12s %14s\n", "shards", "queries/sec", "p99 ms", "raw parses")

	qpsBy := map[int]float64{}
	rawBy := map[int]int64{}
	for _, n := range []int{1, 2, 4} {
		f, err := r.startFleet(n, recache.Config{Admission: "eager", Layout: "columnar", CacheCapacity: perShard})
		if err != nil {
			return err
		}
		qps, p99, rawParses, ferr := func() (float64, float64, int64, error) {
			// Warm through the router: every entry builds once, on its
			// owning shard.
			dial := func() (*client.Router, error) { return client.DialRouter(f.addrs, client.RouterOptions{}) }
			warm, err := dial()
			if err != nil {
				return 0, 0, 0, err
			}
			defer warm.Close()
			for _, q := range queries {
				if _, _, err := warm.Exec(q); err != nil {
					return 0, 0, 0, err
				}
			}
			qps, p99, err := wireReplay(dial, queries, total, conc)
			if err != nil {
				return 0, 0, 0, err
			}
			// Fleet-wide raw parses since the fleet came up: the k warm
			// builds plus every capacity re-scan the replay forced.
			ts, err := warm.TableStats("lineitem")
			if err != nil {
				return 0, 0, 0, err
			}
			return qps, p99, ts.RawScans, nil
		}()
		f.Close()
		if ferr != nil {
			return ferr
		}
		r.printf("%8d %14.0f %12.2f %14d\n", n, qps, p99, rawParses)
		qpsBy[n], rawBy[n] = qps, rawParses
		r.addPhase(Phase{
			Name:      fmt.Sprintf("shard-scale-%d", n),
			QPS:       qps,
			P99Millis: p99,
			RawParses: rawParses,
		})
	}
	r.printf("4-shard / 1-shard qps ratio: %.1fx\n", qpsBy[4]/qpsBy[1])
	if qpsBy[4] < 2*qpsBy[1] {
		return fmt.Errorf("harness: 4-shard fleet reached only %.2fx the 1-shard hit throughput, want >= 2x",
			qpsBy[4]/qpsBy[1])
	}
	if rawBy[4] >= rawBy[1] {
		return fmt.Errorf("harness: 4-shard fleet cost %d raw parses vs %d for 1 shard — aggregate capacity did not grow",
			rawBy[4], rawBy[1])
	}
	return nil
}

// shardColdFlight fires 16 independent routers at a fresh 4-shard fleet
// with one identical cold query, twice on disjoint predicates: every
// router must hash the key to the same owning shard, whose shared-scan
// cycle serves the whole burst from ONE raw parse — so the fleet-wide
// parse count per burst stays at one even though no client coordinates
// with any other.
func (r *Runner) shardColdFlight(paths *datagen.TPCHPaths) error {
	const w = 16
	f, err := r.startFleet(4, recache.Config{Admission: "eager", Layout: "columnar"})
	if err != nil {
		return err
	}
	defer f.Close()
	routers := make([]*client.Router, w)
	for i := range routers {
		rt, err := client.DialRouter(f.addrs, client.RouterOptions{Options: client.Options{RequestTimeout: 5 * time.Minute}})
		if err != nil {
			return err
		}
		defer rt.Close()
		routers[i] = rt
	}
	b1, err := wireBurst(routers, "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 5")
	if err != nil {
		return err
	}
	b2, err := wireBurst(routers, "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 10 AND 14")
	if err != nil {
		return err
	}
	r.printf("\nshard cold burst: fleet-wide raw lineitem parses per burst of %d routed identical cold queries\n", w)
	r.printf("burst1 %d parses, burst2 %d parses (4-shard fleet)\n", b1, b2)
	if b2 > 2 {
		return fmt.Errorf("harness: second routed cold burst cost %d raw parses fleet-wide, want <= 2 (routing or work sharing broken)", b2)
	}
	r.addPhase(Phase{
		Name:         "shard-cold-flight",
		Goroutines:   w,
		Burst1Parses: b1,
		Burst2Parses: b2,
	})
	return nil
}
