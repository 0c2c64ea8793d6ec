package client_test

// The fleet's serving claims as counts, not timings: what a routed request
// cost in raw scans, builds and breaker transitions is exact for a fixed
// sequence of requests, so none of these tests reads a clock to judge the
// fleet (waitFor only bounds how long an asynchronous push may take).

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/shard"
)

// fleetRawScans sums table t's raw scans over the members, skipping one
// (-1 = none).
func fleetRawScans(f *testFleet, skip int) (sum int64) {
	for i, eng := range f.engines {
		if i != skip {
			sum += eng.RawScans("t")
		}
	}
	return sum
}

// Three replicated members answer a routed query set exactly as an
// embedded no-cache engine does; the member owning the most keys is killed
// in the middle of a concurrent burst and the set keeps answering with zero
// caller errors, from the survivors' replicas rather than raw re-scans, and
// every router that failed over has opened the dead member's breaker; Close
// leaves nothing behind — no open transaction, socket, half-written spill
// file or goroutine.
func TestFleetFailoverLifecycle(t *testing.T) {
	csvPath := fleetCSV(t, 200)
	ref, err := recache.Open(recache.Config{Admission: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.RegisterCSV("t", csvPath, fleetSchema, '|'); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const failureThreshold = 2
	f := startFleetWith(t, 3, csvPath, fleetOpts{replicated: true})
	routers := make([]*client.Router, 3)
	for i := range routers {
		rt, err := client.DialRouter(f.addrs, client.RouterOptions{
			Options:          client.Options{RequestTimeout: 5 * time.Second},
			FailureThreshold: failureThreshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		routers[i] = rt
	}
	// The set: twelve disjoint ten-row id-range aggregates.
	queries := make([]string, 12)
	want := make([][][]any, len(queries))
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT SUM(price), COUNT(*) FROM t WHERE id BETWEEN %d AND %d", i*10+1, i*10+10)
		res, err := ref.Query(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}
	// routed replays the set through rt, calling answered (nil = nothing)
	// after each query.
	routed := func(rt *client.Router, answered func()) error {
		for i, q := range queries {
			got, err := rt.Query(q)
			if err != nil {
				return fmt.Errorf("caller saw %w", err)
			}
			if !reflect.DeepEqual(got.Rows, want[i]) {
				return fmt.Errorf("%s = %v, embedded says %v", q, got.Rows, want[i])
			}
			if answered != nil {
				answered()
			}
		}
		return nil
	}
	if err := routed(routers[0], nil); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}
	waitFor(t, 10*time.Second, "every entry's replica push to land", func() bool {
		var got int64
		for _, eng := range f.engines {
			got += eng.Manager().Stats().ReplicaAdmits
		}
		return got >= int64(len(queries))
	})

	// The victim owns the most keys, so each router's replay below sends
	// it at least failureThreshold requests.
	owned := make([]int, len(f.members))
	for _, q := range queries {
		owned[routers[0].ShardFor(q)]++
	}
	victim := 0
	for i, n := range owned {
		if n > owned[victim] {
			victim = i
		}
	}
	if owned[victim] < failureThreshold {
		t.Fatalf("victim owns %d keys, too few to trip a breaker: %v", owned[victim], owned)
	}
	rawBefore := fleetRawScans(f, victim)
	// The burst: every router replays the set at once, and the victim dies
	// when a third of the answers are in — by count, not by clock.
	var answers atomic.Int64
	var wg sync.WaitGroup
	burstErrs := make([]error, len(routers))
	for i, rt := range routers {
		wg.Add(1)
		go func(i int, rt *client.Router) {
			defer wg.Done()
			burstErrs[i] = routed(rt, func() {
				if answers.Add(1) == int64(len(routers)*len(queries)/3) {
					f.members[victim].Kill()
				}
			})
		}(i, rt)
	}
	wg.Wait()
	for i, err := range burstErrs {
		if err != nil {
			t.Fatalf("member killed mid-burst, router %d: %v", i, err)
		}
	}
	for i, rt := range routers {
		if err := routed(rt, nil); err != nil {
			t.Fatalf("one member dead, router %d: %v", i, err)
		}
		rs := rt.RouterStats()
		if rs.Failovers < int64(owned[victim]) {
			t.Errorf("router %d: %d failovers for %d keys of a dead owner", i, rs.Failovers, owned[victim])
		}
		if rs.OpenShards != 1 || rs.BreakerOpens == 0 {
			t.Errorf("router %d failed over %d times without opening the victim's breaker: %+v", i, rs.Failovers, rs)
		}
	}
	if rawAfter := fleetRawScans(f, victim); rawAfter != rawBefore {
		t.Errorf("failover cost raw scans on the survivors: %d -> %d", rawBefore, rawAfter)
	}
	var diskHits int64
	for i, eng := range f.engines {
		if i != victim {
			diskHits += eng.CacheStats().DiskHits
		}
	}
	if diskHits == 0 {
		t.Error("no disk-tier hits on the survivors: the replicas were not used")
	}

	for _, rt := range routers {
		rt.Close()
	}
	for i, mb := range f.members {
		if err := mb.Close(); err != nil {
			t.Errorf("member %d: Close: %v", i, err)
		}
		if open := mb.Engine().CacheStats().OpenTxns; open != 0 {
			t.Errorf("member %d closed with %d transactions open", i, open)
		}
	}
	left, err := filepath.Glob(filepath.Join(f.dir, "*.sock"))
	if err != nil || len(left) != 0 {
		t.Errorf("sockets survived Close: %v, %v", left, err)
	}
	if left, err = filepath.Glob(filepath.Join(f.dir, "spill*", "*.tmp")); err != nil || len(left) != 0 {
		t.Errorf("half-written spill files survived Close: %v, %v", left, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the fleet started", runtime.NumGoroutine(), baseline)
		}
	}
}

// A burst of identical cold queries from independent routers lands on one
// member — no router coordinates with another, they only hash alike — and
// that member builds the entry once: one admission fleet-wide and not a
// single raw scan anywhere else.
func TestRoutedColdBurstBuildsOnce(t *testing.T) {
	const w = 8
	f := startFleet(t, 4, fleetCSV(t, 4000))
	routers := make([]*client.Router, w)
	for i := range routers {
		routers[i] = dialRouter(t, f.addrs)
	}
	for burst, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE id BETWEEN 1 AND 50",
		"SELECT COUNT(*) FROM t WHERE id BETWEEN 101 AND 150",
	} {
		owner := routers[0].ShardFor(sql)
		inserted := func() (sum int64) {
			for _, eng := range f.engines {
				sum += eng.CacheStats().Inserted
			}
			return sum
		}
		insBefore, rawBefore := inserted(), fleetRawScans(f, owner)
		start := make(chan struct{})
		errs := make([]error, w)
		var wg sync.WaitGroup
		for i, rt := range routers {
			wg.Add(1)
			go func(i int, rt *client.Router) {
				defer wg.Done()
				<-start
				errs[i] = queryCount(rt, sql, 50)
			}(i, rt)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := inserted() - insBefore; got != 1 {
			t.Errorf("burst %d: %d entries admitted fleet-wide for one key, want 1", burst, got)
		}
		if got := fleetRawScans(f, owner); got != rawBefore {
			t.Errorf("burst %d: members that do not own the key ran %d raw scans", burst, got-rawBefore)
		}
	}
}

// Capacity is what a fleet adds: a pool of entries four times one member's
// budget, replayed twice, still costs one member raw scans on the second
// pass (it can hold a quarter of the pool) and costs four members none.
func TestFleetCapacityScalesWithMembers(t *testing.T) {
	csvPath := fleetCSV(t, 1000)
	const members, perMember = 4, 4

	// The pool: perMember keys per shard of a four-member map (ownership
	// is a function of shard ids alone), so no member is asked to hold
	// more than its share. Ranges start at id 101: three-digit ids give
	// every entry the same footprint, so a budget of a quarter of the pool
	// is exactly perMember entries.
	infos := make([]shard.Info, members)
	for i := range infos {
		infos[i] = shard.Info{ID: i, Addr: fmt.Sprint(i)}
	}
	m, err := shard.NewMap(infos)
	if err != nil {
		t.Fatal(err)
	}
	var pool []string
	owned := make([]int, members)
	for i := 10; i < 99 && len(pool) < members*perMember; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", i*10+1, i*10+10)
		if s := m.Owner(shard.RouteKey(sql)).ID; owned[s] < perMember {
			owned[s]++
			pool = append(pool, sql)
		}
	}
	if len(pool) != members*perMember {
		t.Fatalf("pool has %d keys, want %d: %v per shard", len(pool), members*perMember, owned)
	}
	// Sized on an unbounded engine: the budget is a quarter of the pool.
	probe, err := recache.Open(recache.Config{Admission: "eager", Layout: "columnar"})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if err := probe.RegisterCSV("t", csvPath, fleetSchema, '|'); err != nil {
		t.Fatal(err)
	}
	for _, q := range pool {
		if _, err := probe.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	budget := probe.CacheStats().TotalBytes / members

	secondPassScans := func(n int) int64 {
		t.Helper()
		f := startFleetWith(t, n, csvPath, fleetOpts{capacity: budget})
		rt := dialRouter(t, f.addrs)
		var afterFirst int64
		for pass := 0; pass < 2; pass++ {
			for _, q := range pool {
				if err := queryCount(rt, q, 10); err != nil {
					t.Fatal(err)
				}
			}
			if pass == 0 {
				afterFirst = fleetRawScans(f, -1)
			}
		}
		return fleetRawScans(f, -1) - afterFirst
	}
	if got := secondPassScans(1); got == 0 {
		t.Error("one member replayed a pool four times its budget without a raw scan: the budget does not bind")
	}
	if got := secondPassScans(members); got != 0 {
		t.Errorf("four members re-scanned raw files %d times for a pool that fits their combined budget", got)
	}
}
