package client_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"recache/internal/client"
	"recache/internal/faultinject"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A router under seeded network faults — dropped response frames, severed
// connections, latency spikes — must deliver every query with the correct
// result and zero caller-visible errors: drops surface as timeouts and
// severs as connection errors, both retryable, and retries land somewhere
// that works.
func TestRouterAbsorbsNetworkFaults(t *testing.T) {
	csvPath := fleetCSV(t, 300)
	f := startFleetWith(t, 3, csvPath, fleetOpts{replicated: true, wrap: func(ln net.Listener) net.Listener {
		return faultinject.Listener(ln, faultinject.Config{
			Seed:      42,
			DropProb:  0.03,
			SeverProb: 0.02,
			DelayProb: 0.10,
			MaxDelay:  5 * time.Millisecond,
		})
	}})
	r, err := client.DialRouter(f.addrs, client.RouterOptions{
		Options:          client.Options{RequestTimeout: 400 * time.Millisecond},
		PingInterval:     100 * time.Millisecond,
		FailureThreshold: 3,
		RetryBudget:      15 * time.Second,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	probes := rangeProbes(r, 30)
	var wg sync.WaitGroup
	errs := make(chan error, 4*40)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := queryCount(r, probes[(i+w)%len(probes)].sql, 10); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// An abrupt shard death opens its breaker after FailureThreshold transport
// failures; once the shard comes back on the same address, the background
// prober re-dials its pool and closes the breaker — no router restart.
func TestBreakerOpensThenRecovers(t *testing.T) {
	csvPath := fleetCSV(t, 200)
	f := startFleet(t, 2, csvPath)
	const victim = 1
	r, err := client.DialRouter(f.addrs, client.RouterOptions{
		Options:          client.Options{RequestTimeout: 300 * time.Millisecond},
		PingInterval:     50 * time.Millisecond,
		FailureThreshold: 2,
		RetryBudget:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Find queries owned by the victim shard.
	var victimSQL []string
	for _, p := range rangeProbes(r, 20) {
		if p.shard == victim && len(victimSQL) < 4 {
			victimSQL = append(victimSQL, p.sql)
		}
	}
	if len(victimSQL) == 0 {
		t.Fatal("victim shard owns no probe queries")
	}

	f.members[victim].Kill()
	// Dead-shard queries keep succeeding via failover — on a survivor that
	// holds no replica and raw-scans, every shard knowing every table — and
	// repeated failures open the victim's breaker.
	waitFor(t, 5*time.Second, "breaker to open", func() bool {
		for _, sql := range victimSQL {
			if err := queryCount(r, sql, 10); err != nil {
				t.Fatal(err)
			}
		}
		return r.RouterStats().OpenShards == 1
	})
	if rs := r.RouterStats(); rs.Failovers == 0 {
		t.Errorf("no failovers recorded despite a dead shard: %+v", rs)
	}
	// Resurrect the shard on the same socket, as a restarted process would:
	// a fresh member with a cold cache.
	f.members[victim].Close()
	f.start(victim)

	// The prober must notice, re-dial, and close the breaker.
	waitFor(t, 5*time.Second, "breaker to close", func() bool {
		return r.RouterStats().OpenShards == 0
	})
	for _, sql := range victimSQL {
		if err := queryCount(r, sql, 10); err != nil {
			t.Fatalf("post-recovery %v", err)
		}
	}
}
