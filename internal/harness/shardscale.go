package harness

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/datagen"
	"recache/internal/server"
	"recache/internal/shard"
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
		f, err := r.startShardFleet(n, perShard, paths.Lineitem)
		if err != nil {
			return err
		}
		qps, p99, rawParses, ferr := func() (float64, float64, int64, error) {
			// Warm through the router: every entry builds once, on its
			// owning shard.
			warm, err := client.DialRouter(f.addrs, client.Options{})
			if err != nil {
				return 0, 0, 0, err
			}
			defer warm.Close()
			for _, q := range queries {
				if _, _, err := warm.Exec(q); err != nil {
					return 0, 0, 0, err
				}
			}
			qps, p99, err := routerReplay(f.addrs, queries, total, conc)
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
	f, err := r.startShardFleet(4, 0, paths.Lineitem)
	if err != nil {
		return err
	}
	defer f.Close()
	routers := make([]*client.Router, w)
	for i := range routers {
		rt, err := client.DialRouter(f.addrs, client.Options{RequestTimeout: 5 * time.Minute})
		if err != nil {
			return err
		}
		defer rt.Close()
		routers[i] = rt
	}
	burst := func(q string) (int64, error) {
		before, err := routers[0].TableStats("lineitem")
		if err != nil {
			return 0, err
		}
		start := make(chan struct{})
		errs := make([]error, w)
		var wg sync.WaitGroup
		for i, rt := range routers {
			wg.Add(1)
			go func(i int, rt *client.Router) {
				defer wg.Done()
				<-start
				_, errs[i] = rt.Query(q)
			}(i, rt)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		after, err := routers[0].TableStats("lineitem")
		if err != nil {
			return 0, err
		}
		return after.RawScans - before.RawScans, nil
	}
	b1, err := burst("SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 5")
	if err != nil {
		return err
	}
	b2, err := burst("SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 10 AND 14")
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

// shardFleet is an in-process shard fleet: one engine+server per shard on
// its own unix socket, wired with the shared lease table and the Flight
// hook exactly as `recached -fleet ... -shard-id N` wires real processes.
type shardFleet struct {
	m       *shard.Map
	addrs   []string
	socks   []string
	engines []*recache.Engine
	servers []*server.Server
	flights []*client.Flight
	served  []chan error
}

// startShardFleet launches n shards with lineitem registered on each and
// perShard bytes of cache budget apiece (0 = unlimited).
func (r *Runner) startShardFleet(n int, perShard int64, lineitem string) (*shardFleet, error) {
	infos := make([]shard.Info, n)
	socks := make([]string, n)
	for i := range infos {
		socks[i] = filepath.Join(r.opts.Dir, fmt.Sprintf("recached-shard%d.sock", i))
		os.Remove(socks[i])
		infos[i] = shard.Info{ID: i, Addr: "unix:" + socks[i]}
	}
	m, err := shard.NewMap(infos)
	if err != nil {
		return nil, err
	}
	f := &shardFleet{m: m, socks: socks}
	for i, s := range infos {
		f.addrs = append(f.addrs, s.Addr)
		lt := shard.NewLeaseTable()
		fl := client.NewFlight(i, m, lt, 0, client.Options{})
		eng, err := recache.Open(recache.Config{
			Admission:     "eager",
			Layout:        "columnar",
			CacheCapacity: perShard,
			RemoteFlight:  fl.Materialize,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.flights = append(f.flights, fl)
		f.engines = append(f.engines, eng)
		if err := eng.RegisterCSV("lineitem", lineitem, datagen.LineitemSchema, '|'); err != nil {
			f.Close()
			return nil, err
		}
		srv := server.New(eng)
		srv.SetFleet(i, m, lt)
		ln, err := net.Listen("unix", socks[i])
		if err != nil {
			f.Close()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
		f.served = append(f.served, served)
	}
	return f, nil
}

// Close drains the servers, then the flights and engines, and removes the
// sockets.
func (f *shardFleet) Close() {
	for i, srv := range f.servers {
		srv.Shutdown()
		<-f.served[i]
	}
	for _, fl := range f.flights {
		fl.Close()
	}
	for _, eng := range f.engines {
		eng.Close()
	}
	for _, s := range f.socks {
		os.Remove(s)
	}
}

// routerReplay replays total queries round-robin from the pool across conc
// routers (pipeDepth request lanes each, released by a start barrier) and
// returns the aggregate queries/sec and p99 per-request latency — the
// fleet analogue of serverReplay, with the rendezvous hop included in
// every latency sample.
func routerReplay(addrs, queries []string, total, conc int) (qps, p99ms float64, err error) {
	rts := make([]*client.Router, conc)
	for i := range rts {
		rt, err := client.DialRouter(addrs, client.Options{})
		if err != nil {
			for _, r := range rts[:i] {
				r.Close()
			}
			return 0, 0, err
		}
		rts[i] = rt
	}
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()

	lanes := conc * pipeDepth
	perLane := total / lanes
	if perLane < 16 {
		perLane = 16
	}
	lats := make([][]time.Duration, lanes)
	errs := make([]error, lanes)
	start := make(chan struct{})
	var wg, warmWG sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		warmWG.Add(1)
		go func(l int) {
			defer wg.Done()
			rt := rts[l/pipeDepth]
			_, _, werr := rt.Exec(queries[l%len(queries)])
			warmWG.Done()
			if werr != nil {
				errs[l] = werr
				return
			}
			<-start
			own := make([]time.Duration, 0, perLane)
			for j := 0; j < perLane; j++ {
				q := queries[(l+j)%len(queries)]
				t0 := time.Now()
				if _, _, err := rt.Exec(q); err != nil {
					errs[l] = err
					return
				}
				own = append(own, time.Since(t0))
			}
			lats[l] = own
		}(l)
	}
	warmWG.Wait()
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	idx := len(all) * 99 / 100
	if idx >= len(all) {
		idx = len(all) - 1
	}
	return float64(len(all)) / elapsed.Seconds(), float64(all[idx].Microseconds()) / 1000, nil
}
