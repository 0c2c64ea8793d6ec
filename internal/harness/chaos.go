package harness

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/datagen"
	"recache/internal/shard"
)

// chaosFailover is the fleet-resilience phase of the perf-trajectory
// report: a 4-shard replicated fleet serving a steady routed load loses
// one shard to a simulated crash mid-burst. The health-checked routers
// must absorb the crash completely — zero caller-visible errors — open
// the dead shard's breaker within one probe interval, and keep serving
// from the survivors (replica disk-tier entries plus rendezvous
// re-routing) at no less than half the healthy throughput. The bench gate
// (cmd/benchdiff) tracks the healthy baseline qps, the post-failover qps,
// their ratio, and the breaker-open recovery time across PRs.
func (r *Runner) chaosFailover() error {
	paths, err := r.ensureTPCH()
	if err != nil {
		return err
	}
	const (
		nShards      = 4
		conc         = 4 // routers, one query worker each
		k            = 16
		pingInterval = 300 * time.Millisecond
		// Consecutive failures that open a router's breaker.
		failureThreshold = 3
	)
	// The shard-scale working set: sixteen disjoint l_quantity ranges, so
	// every shard owns keys and every shard is someone's replica.
	queries := make([]string, k)
	for i := range queries {
		lo := 1 + 3*i
		queries[i] = fmt.Sprintf(
			"SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity BETWEEN %d AND %d",
			lo, lo+2)
	}
	// The daemon's replicated fleet: a spill dir per shard is the disk tier
	// the replica pushes land in.
	f, err := r.startFleet(nShards, recache.Config{
		Admission: "eager",
		Layout:    "columnar",
		SpillDir:  filepath.Join(r.opts.Dir, "chaos-spill"),
	})
	if err != nil {
		return err
	}
	defer f.Close()

	// The degradation floor: an admission-off local engine running the raw
	// scan, reached only if every shard is unavailable. It should never
	// fire here (three survivors remain); the fallback count is checked.
	local, err := recache.Open(recache.Config{Admission: "off"})
	if err != nil {
		return err
	}
	defer local.Close()
	if err := local.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
		return err
	}
	fallback := func(sql string) (int64, time.Duration, error) {
		res, err := local.Query(sql)
		if err != nil {
			return 0, 0, err
		}
		return int64(len(res.Rows)), res.Stats.Wall, nil
	}

	routers := make([]*client.Router, conc)
	for i := range routers {
		rt, err := client.DialRouter(f.addrs, client.RouterOptions{
			Options:          client.Options{RequestTimeout: time.Second},
			PingInterval:     pingInterval,
			FailureThreshold: failureThreshold,
			RetryBudget:      10 * time.Second,
			Fallback:         fallback,
			Seed:             r.opts.Seed + int64(i),
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		routers[i] = rt
	}

	// Warm every entry on its rendezvous owner, then wait for the async
	// replica pushes to land on the second-ranked shards — the copies the
	// failover will serve from.
	for _, q := range queries {
		if _, _, err := routers[0].Exec(q); err != nil {
			return err
		}
	}
	if err := waitReplicas(f, k, 10*time.Second); err != nil {
		return err
	}

	// burst replays total queries round-robin across the routers, counting
	// caller-visible errors instead of aborting on the first (the error
	// count itself is the gated metric). watch, when set, runs concurrent
	// with the replay — the crash injection — and is joined before the
	// routers are touched again; finished closes when the replay drains so
	// a watcher never outlives its burst.
	total := r.nq(600)
	if total < 240 {
		// Below this the post-kill tail is too short to give the routers
		// failureThreshold requests apiece on the victim, so at small
		// -queries scales no breaker would open and nothing be measured.
		total = 240
	}
	burst := func(watch func(completed *atomic.Int64, finished <-chan struct{})) (qps float64, errCount int64, firstErr error) {
		var (
			wg        sync.WaitGroup
			completed atomic.Int64
			errs      atomic.Int64
			errOnce   sync.Once
		)
		finished := make(chan struct{})
		watched := make(chan struct{})
		if watch != nil {
			go func() {
				defer close(watched)
				watch(&completed, finished)
			}()
		} else {
			close(watched)
		}
		per := total / conc
		start := time.Now()
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					if _, _, err := routers[w].Exec(queries[(w+j)%len(queries)]); err != nil {
						errs.Add(1)
						errOnce.Do(func() { firstErr = err })
						continue
					}
					completed.Add(1)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(finished)
		<-watched
		return float64(completed.Load()) / elapsed.Seconds(), errs.Load(), firstErr
	}

	r.printf("\nchaos failover: %d-shard replicated fleet, %d routed workers, shard killed after %d of %d queries\n",
		nShards, conc, total/3, total)

	steadyQPS, errCount, firstErr := burst(nil)
	if errCount > 0 {
		return fmt.Errorf("harness: healthy chaos baseline saw %d errors, first: %v", errCount, firstErr)
	}

	// The chaos burst: a watcher kills one shard a third of the way in,
	// then times how long the routers take to open its breaker (stop
	// paying per-request discovery on the corpse). The victim is the shard
	// owning the most keys — the worst shard to lose, and the one every
	// router is guaranteed to keep hitting until its breaker trips.
	victim, owned := 0, -1
	for _, s := range f.m.Shards() {
		n := 0
		for _, q := range queries {
			if f.m.Owner(shard.RouteKey(q)).ID == s.ID {
				n++
			}
		}
		if n > owned {
			victim, owned = s.ID, n
		}
	}
	// Time-to-open is measured over the routers that met the corpse. A
	// worker that drained its share of the burst before the kill never
	// sends the dead shard another request, so its breaker has nothing to
	// trip on; waiting for it would only time the watcher out. Failovers
	// counts exactly the post-kill requests (served off the key's owner):
	// a router that paid failureThreshold of them must have opened.
	var (
		recovery  time.Duration
		failovers = make([]int64, len(routers))
		opened    = make([]bool, len(routers))
	)
	kill := func(completed *atomic.Int64, finished <-chan struct{}) {
		for completed.Load() < int64(total/3) {
			select {
			case <-finished:
				return
			default:
			}
			time.Sleep(time.Millisecond)
		}
		for i, rt := range routers {
			failovers[i] = rt.RouterStats().Failovers
		}
		f.members[victim].Kill()
		t0 := time.Now()
		for nOpen, drained := 0, false; nOpen < len(routers) && !drained; {
			select {
			case <-finished:
				drained = true // one last look at the final state
			default:
				time.Sleep(time.Millisecond)
			}
			for i, rt := range routers {
				if !opened[i] && rt.RouterStats().OpenShards > 0 {
					opened[i] = true
					nOpen++
					recovery = time.Since(t0)
				}
			}
		}
		for i, rt := range routers {
			failovers[i] = rt.RouterStats().Failovers - failovers[i]
		}
	}
	_, errCount, firstErr = burst(kill)
	if errCount > 0 {
		return fmt.Errorf("harness: shard crash leaked %d errors to callers, first: %v", errCount, firstErr)
	}
	if recovery == 0 {
		return fmt.Errorf("harness: chaos burst drained before the kill fired — raise the query count so the victim is stressed")
	}
	for i := range routers {
		if !opened[i] && failovers[i] >= failureThreshold {
			return fmt.Errorf("harness: router %d failed %d requests over from the dead shard without opening its breaker", i, failovers[i])
		}
	}
	if recovery > pingInterval {
		return fmt.Errorf("harness: routers took %v to open the dead shard's breaker, want <= one probe interval (%v)",
			recovery, pingInterval)
	}

	// Post-failover throughput: the survivors now serve the dead shard's
	// keys from replica disk-tier entries and failover routing.
	postQPS, errCount, firstErr := burst(nil)
	if errCount > 0 {
		return fmt.Errorf("harness: post-failover burst saw %d errors, first: %v", errCount, firstErr)
	}
	if postQPS < steadyQPS/2 {
		return fmt.Errorf("harness: post-failover throughput %.0f qps is under half the healthy %.0f qps",
			postQPS, steadyQPS)
	}
	var fallbacks int64
	for _, rt := range routers {
		fallbacks += rt.RouterStats().Fallbacks
	}
	r.printf("killed shard %d (owner of %d/%d keys)\n", victim, owned, k)
	r.printf("%14s %14s %14s %14s\n", "steady qps", "failover qps", "recovery ms", "fallbacks")
	r.printf("%14.0f %14.0f %14.1f %14d\n",
		steadyQPS, postQPS, float64(recovery.Microseconds())/1000, fallbacks)
	r.addPhase(Phase{
		Name:       "chaos-steady",
		Goroutines: conc,
		QPS:        steadyQPS,
	})
	r.addPhase(Phase{
		Name:           "chaos-failover",
		Goroutines:     conc,
		QPS:            postQPS,
		RecoveryMillis: float64(recovery.Microseconds()) / 1000,
	})
	return nil
}

// waitReplicas blocks until want replica payloads have been admitted
// fleet-wide (the pushes are asynchronous and best-effort; the chaos phase
// needs them landed before it starts killing owners).
func waitReplicas(f *fleet, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var got int64
		for _, mb := range f.members {
			got += mb.Engine().Manager().Stats().ReplicaAdmits
		}
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: only %d/%d replica pushes landed before the chaos phase", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
