package recache

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recache/internal/csvio"
	"recache/internal/expr"
	"recache/internal/plan"
)

// countQtyBetween computes the expected COUNT(*) for the test table t
// (qty values 10, 20, 30, 40, 50).
func countQtyBetween(lo, hi int) int64 {
	var n int64
	for _, qty := range []int{10, 20, 30, 40, 50} {
		if qty >= lo && qty <= hi {
			n++
		}
	}
	return n
}

// A mixed hot/cold workload from many goroutines must classify every query
// as exactly one of exact hit, subsumed hit, or miss — and return correct
// rows throughout.
func TestConcurrentStatsInvariant(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	const workers = 8
	const perWorker = 40

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				switch r.Intn(3) {
				case 0: // hot: repeated exact query
					res, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45")
					if err != nil {
						errCh <- err
						return
					}
					if got := res.Rows[0][0].(int64); got != 3 {
						errCh <- fmt.Errorf("hot count = %d, want 3", got)
						return
					}
				case 1: // cold-ish: random range (sometimes subsumed by a cached one)
					lo := r.Intn(50)
					hi := lo + r.Intn(30)
					q := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE qty BETWEEN %d AND %d", lo, hi)
					res, err := eng.Query(q)
					if err != nil {
						errCh <- err
						return
					}
					if got, want := res.Rows[0][0].(int64), countQtyBetween(lo, hi); got != want {
						errCh <- fmt.Errorf("%s = %d, want %d", q, got, want)
						return
					}
				default: // second table keeps multiple datasets in play
					res, err := eng.Query("SELECT COUNT(*) FROM orders WHERE total >= 200")
					if err != nil {
						errCh <- err
						return
					}
					if got := res.Rows[0][0].(int64); got != 3 {
						errCh <- fmt.Errorf("orders count = %d, want 3", got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := eng.CacheStats()
	if st.Queries != workers*perWorker {
		t.Errorf("queries = %d, want %d", st.Queries, workers*perWorker)
	}
	if got := st.ExactHits + st.SubsumedHits + st.Misses; got != st.Queries {
		t.Errorf("hits(%d)+subsumed(%d)+misses(%d) = %d, want Queries = %d",
			st.ExactHits, st.SubsumedHits, st.Misses, got, st.Queries)
	}
	if st.ExactHits == 0 {
		t.Error("hot workload produced no exact hits")
	}
}

// M concurrent identical cold queries must build exactly one cache entry
// (single-flight): the non-builders scan raw, and every caller still gets
// correct rows.
func TestConcurrentSingleFlightBuild(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	const M = 12
	q := "SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45"

	start := make(chan struct{})
	results := make([]int64, M)
	errs := make([]error, M)
	var wg sync.WaitGroup
	for i := 0; i < M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := eng.Query(q)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res.Rows[0][0].(int64)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < M; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != 3 {
			t.Errorf("goroutine %d: count = %d, want 3", i, results[i])
		}
	}
	st := eng.CacheStats()
	if st.Inserted != 1 {
		t.Errorf("inserted = %d, want 1 (single-flight materialization)", st.Inserted)
	}
	if got := st.ExactHits + st.SubsumedHits + st.Misses; got != st.Queries {
		t.Errorf("stats invariant broken: %+v", st)
	}
}

// gateProvider wraps a real source, reporting each raw scan a miss opens
// (PushdownCursor) on started and holding it until a token arrives on gate,
// so a test can hold every raw scan of a burst in flight at once.
type gateProvider struct {
	plan.Source
	started chan struct{} // signalled as each scan begins
	gate    chan struct{} // one token consumed per scan before it proceeds
	scans   atomic.Int64
}

func (g *gateProvider) PushdownCursor(epoch uint64, from int64, pd *expr.Pushdown) (plan.OffsetCursor, error) {
	if from == 0 {
		g.scans.Add(1)
		g.started <- struct{}{}
		<-g.gate
	}
	return g.Source.PushdownCursor(epoch, from, pd)
}

// Scans lets Engine.RawScans count through the wrapper.
func (g *gateProvider) Scans() int64 { return g.scans.Load() }

// A burst of N identical cold queries is N raw scans, all in flight at
// once on the queries' own goroutines: no query waits for another's scan.
// Single-flight still admits exactly one entry, and every query answers.
func TestColdBurstScansPrivately(t *testing.T) {
	for _, n := range []int{4, 16} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			eng, err := Open(Config{Admission: "eager"})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			schema, err := ParseSchema("id int, qty int, price float, name string")
			if err != nil {
				t.Fatal(err)
			}
			base, err := csvio.New(writeTemp(t, "t.csv", "1|10|1.5|aa\n2|20|2.5|bb\n3|30|3.5|cc\n4|40|4.5|dd\n5|50|5.5|ee\n"),
				schema, csvio.Options{Delim: '|'})
			if err != nil {
				t.Fatal(err)
			}
			gp := &gateProvider{Source: base, started: make(chan struct{}, n), gate: make(chan struct{}, n)}
			if err := eng.RegisterProvider("t", plan.FormatCSV, gp); err != nil {
				t.Fatal(err)
			}
			q := "SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45"
			results := make([]int64, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := eng.Query(q)
					if err != nil {
						errs[i] = err
						return
					}
					results[i] = res.Rows[0][0].(int64)
				}(i)
			}
			timeout := time.After(20 * time.Second)
		wait:
			for i := 0; i < n; i++ {
				select {
				case <-gp.started:
				case <-timeout:
					t.Errorf("%d of %d raw scans in flight together", i, n)
					break wait
				}
			}
			for i := 0; i < n; i++ {
				gp.gate <- struct{}{}
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if results[i] != 3 {
					t.Errorf("query %d count = %d, want 3", i, results[i])
				}
			}
			if got := eng.RawScans("t"); got != int64(n) {
				t.Errorf("Engine.RawScans = %d, want %d", got, n)
			}
			st := eng.CacheStats()
			if st.Inserted != 1 {
				t.Errorf("inserted = %d, want 1 (single-flight materialization)", st.Inserted)
			}
			if got := st.ExactHits + st.SubsumedHits + st.Misses; got != st.Queries {
				t.Errorf("stats invariant broken: %+v", st)
			}
		})
	}
}

// Heavy insert/evict churn concurrent with hot scans must stay correct:
// eviction defers freeing an entry's store until its readers finish.
func TestConcurrentEvictionWhileScanning(t *testing.T) {
	// Capacity of ~1 entry guarantees every insert evicts something.
	eng := testEngine(t, Config{Admission: "eager", CacheCapacity: 700})
	const workers = 8
	const perWorker = 30

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				lo := r.Intn(50)
				hi := lo + r.Intn(30)
				q := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE qty BETWEEN %d AND %d", lo, hi)
				res, err := eng.Query(q)
				if err != nil {
					errCh <- err
					return
				}
				if got, want := res.Rows[0][0].(int64), countQtyBetween(lo, hi); got != want {
					errCh <- fmt.Errorf("%s = %d, want %d", q, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Evictions == 0 {
		t.Error("workload produced no evictions; capacity too large for the test")
	}
	if got := st.ExactHits + st.SubsumedHits + st.Misses; got != st.Queries {
		t.Errorf("stats invariant broken: %+v", st)
	}
}

// Concurrent replays of one lazy entry must upgrade it to eager exactly
// once; the losers replay offsets and still return correct rows.
func TestConcurrentLazyUpgradeOnce(t *testing.T) {
	// A microscopic threshold forces every admission decision to lazy.
	eng := testEngine(t, Config{
		Admission:           "adaptive",
		AdmissionThreshold:  1e-12,
		AdmissionSampleSize: 2,
	})
	q := "SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45"
	if _, err := eng.Query(q); err != nil { // cold: builds the lazy entry
		t.Fatal(err)
	}
	entries := eng.CacheEntries()
	if len(entries) != 1 || entries[0].Mode != "lazy" {
		t.Fatalf("setup: entries = %+v, want one lazy entry", entries)
	}

	const M = 8
	start := make(chan struct{})
	errs := make([]error, M)
	var wg sync.WaitGroup
	for i := 0; i < M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := eng.Query(q)
			if err != nil {
				errs[i] = err
				return
			}
			if got := res.Rows[0][0].(int64); got != 3 {
				errs[i] = fmt.Errorf("count = %d, want 3", got)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.LazyUpgrades != 1 {
		t.Errorf("lazy upgrades = %d, want exactly 1", st.LazyUpgrades)
	}
	entries = eng.CacheEntries()
	if len(entries) != 1 || entries[0].Mode != "eager" {
		t.Errorf("entries after upgrade = %+v, want one eager entry", entries)
	}
}

// Explain must have no side effects on cache state: same stats, same
// entries, same reuse counters — while still showing what Query would do.
func TestExplainHasNoSideEffects(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	hot := "SELECT COUNT(*) FROM t WHERE qty > 25"
	if _, err := eng.Query(hot); err != nil {
		t.Fatal(err)
	}

	before := eng.CacheStats()
	entriesBefore := eng.CacheEntries()

	out, err := eng.Explain(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CachedScan") {
		t.Errorf("explain of a hit should show CachedScan:\n%s", out)
	}
	cold, err := eng.Explain("SELECT COUNT(*) FROM t WHERE qty < 15")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "Materialize") {
		t.Errorf("explain of a miss should show Materialize:\n%s", cold)
	}

	if after := eng.CacheStats(); after != before {
		t.Errorf("Explain mutated cache stats:\nbefore %+v\nafter  %+v", before, after)
	}
	if entriesAfter := eng.CacheEntries(); !reflect.DeepEqual(entriesAfter, entriesBefore) {
		t.Errorf("Explain mutated cache entries:\nbefore %+v\nafter  %+v", entriesBefore, entriesAfter)
	}
}
