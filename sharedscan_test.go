package recache

// Engine-level work-sharing tests (run with -race): N concurrent identical
// cold queries on one dataset must pay for exactly one raw-file parse per
// batch cycle, piggybacking the single-flight cache build on the shared
// scan, while every query still returns correct rows.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recache/internal/csvio"
	"recache/internal/plan"
	"recache/internal/share"
	"recache/internal/value"
)

// gateProvider wraps a real provider, reporting each full-file Scan start
// on started and holding it until a token arrives on gate — so tests can
// freeze a raw scan at a deterministic point while a burst gathers.
type gateProvider struct {
	plan.ScanProvider
	started chan int      // receives the scan ordinal as each Scan begins
	gate    chan struct{} // one token consumed per Scan before it proceeds
	scans   atomic.Int64
}

func (g *gateProvider) Scan(needed []value.Path, fn plan.ScanFunc) error {
	n := g.scans.Add(1)
	g.started <- int(n)
	<-g.gate
	return g.ScanProvider.Scan(needed, fn)
}

// Scans lets Engine.RawScans count through the wrapper.
func (g *gateProvider) Scans() int64 { return g.scans.Load() }

// gatedEngine builds an engine whose table "t" sits behind a gateProvider
// and whose coordinator uses a long batching window (the tests seal cycles
// via the early-seal path, deterministically, never via the timer).
func gatedEngine(t *testing.T) (*Engine, *gateProvider) {
	t.Helper()
	eng, err := Open(Config{Admission: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	eng.ConfigureSharedScans(true, share.Config{Window: 30 * time.Second})
	csv := "1|10|1.5|aa\n2|20|2.5|bb\n3|30|3.5|cc\n4|40|4.5|dd\n5|50|5.5|ee\n"
	schema, err := ParseSchema("id int, qty int, price float, name string")
	if err != nil {
		t.Fatal(err)
	}
	base, err := csvio.New(writeTemp(t, "t.csv", csv), schema, csvio.Options{Delim: '|'})
	if err != nil {
		t.Fatal(err)
	}
	gp := &gateProvider{ScanProvider: base, started: make(chan int, 8), gate: make(chan struct{}, 8)}
	if err := eng.RegisterProvider("t", plan.FormatCSV, gp); err != nil {
		t.Fatal(err)
	}
	return eng, gp
}

func waitForShare(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// The acceptance-criterion test: while one cold query's raw scan is in
// flight, a burst of N concurrent identical cold queries must gather into
// ONE batch cycle — the raw file is parsed exactly once for the whole
// burst (asserted via the provider scan counter), the single-flight build
// piggybacks on that shared scan, and all N queries return correct rows.
func TestSharedScanBurstParsesOncePerCycle(t *testing.T) {
	for _, n := range []int{4, 16} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			eng, gp := gatedEngine(t)

			// Q0: a cold query on its own predicate, frozen mid-scan so the
			// dataset has a raw scan in flight when the burst arrives.
			q0done := make(chan error, 1)
			go func() {
				_, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty BETWEEN 10 AND 20")
				q0done <- err
			}()
			if s := <-gp.started; s != 1 {
				t.Fatalf("first scan ordinal = %d", s)
			}

			// The burst: N identical cold queries on a different predicate.
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
			waitForShare(t, "the burst to gather into one cycle", func() bool {
				waiting, _, _, _ := eng.share.Status(gp)
				return waiting == n
			})

			gp.gate <- struct{}{} // release Q0; the cycle seals early
			if s := <-gp.started; s != 2 {
				t.Fatalf("burst cycle scan ordinal = %d, want 2", s)
			}
			gp.gate <- struct{}{} // release the one shared scan
			wg.Wait()
			if err := <-q0done; err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if results[i] != 3 {
					t.Errorf("query %d count = %d, want 3", i, results[i])
				}
			}

			// One parse for Q0 + exactly one parse for the whole N-burst.
			if got := gp.scans.Load(); got != 2 {
				t.Errorf("raw file parsed %d times, want 2 (Q0 + one shared cycle for all %d misses)", got, n)
			}
			if got := eng.RawScans("t"); got != 2 {
				t.Errorf("Engine.RawScans = %d, want 2", got)
			}
			st := eng.CacheStats()
			if st.SharedScans != 1 || st.SharedConsumers != int64(n) {
				t.Errorf("shared counters = %d cycles / %d consumers, want 1 / %d",
					st.SharedScans, st.SharedConsumers, n)
			}
			// Single-flight still holds on top of work sharing: Q0's entry
			// plus exactly one entry for the burst predicate.
			if st.Inserted != 2 {
				t.Errorf("inserted = %d, want 2", st.Inserted)
			}
			if got := st.ExactHits + st.SubsumedHits + st.Misses; got != st.Queries {
				t.Errorf("stats invariant broken: %+v", st)
			}
		})
	}
}

// A lone cold query must bypass the coordinator: private scan, no batching
// window, no shared cycle — the pre-work-sharing miss path.
func TestSharedScanSingleConsumerBypass(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if st := eng.CacheStats(); st.SharedScans != 0 || st.SharedConsumers != 0 {
		t.Errorf("lone query used a shared cycle: %+v", st)
	}
	ss := eng.share.Stats()
	if ss.PrivateScans == 0 {
		t.Error("lone query did not take the private fast path")
	}
	if got := eng.RawScans("t"); got != 1 {
		t.Errorf("raw scans = %d, want 1", got)
	}
}

// Disabling the coordinator restores fully private scans and still answers
// correctly.
func TestSharedScanDisabled(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	eng.ConfigureSharedScans(false, share.Config{})
	if eng.share != nil {
		t.Fatal("ConfigureSharedScans(false) left a coordinator in place")
	}
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if st := eng.CacheStats(); st.SharedScans != 0 {
		t.Errorf("shared scans = %d with sharing disabled", st.SharedScans)
	}
}

// Explain must annotate a raw Scan with the dataset's live shared-scan
// state — and stay side-effect free while doing so.
func TestExplainShowsSharedScanState(t *testing.T) {
	eng, gp := gatedEngine(t)

	// Before any coordination: no annotation.
	out, err := eng.Explain("SELECT COUNT(*) FROM t WHERE qty > 25")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "shared-scan") {
		t.Errorf("idle dataset annotated:\n%s", out)
	}

	// Freeze one scan and gather two waiters (different predicates — a
	// cycle shares across predicates); Explain must show the live state.
	q0done := make(chan error, 1)
	go func() {
		_, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty BETWEEN 10 AND 20")
		q0done <- err
	}()
	<-gp.started
	waiterDone := make(chan error, 2)
	go func() {
		_, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45")
		waiterDone <- err
	}()
	go func() {
		_, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty >= 40")
		waiterDone <- err
	}()
	waitForShare(t, "the waiters to gather", func() bool {
		waiting, _, _, _ := eng.share.Status(gp)
		return waiting == 2
	})
	before := eng.CacheStats()
	out, err = eng.Explain("SELECT COUNT(*) FROM t WHERE qty < 15")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shared-scan: 2 waiting, 1 running") {
		t.Errorf("explain missing live shared-scan state:\n%s", out)
	}
	if after := eng.CacheStats(); after != before {
		t.Errorf("Explain mutated stats:\nbefore %+v\nafter  %+v", before, after)
	}

	gp.gate <- struct{}{}
	<-gp.started
	gp.gate <- struct{}{}
	if err := <-q0done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-waiterDone; err != nil {
			t.Fatal(err)
		}
	}

	// After the cycle: the per-dataset totals show up.
	out, err = eng.Explain("SELECT COUNT(*) FROM t WHERE qty < 15")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 cycles served 2 consumers") {
		t.Errorf("explain missing shared-scan totals:\n%s", out)
	}
}
