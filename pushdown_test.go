package recache

// Engine-level predicate-pushdown tests: a differential suite proving that
// pushing conjuncts below parsing never changes results — across CSV and
// JSON (absent keys, nulls, quoted fields), admission modes, repeated
// passes (first scan vs positional-map scan vs cache hit), and concurrent
// heterogeneous bursts (run with -race) — plus counter accounting and
// EXPLAIN annotations.

import (
	"fmt"
	"reflect"

	"strings"
	"sync"
	"testing"
)

// pushdownEngine registers edge-case CSV and JSON tables: empty CSV fields
// (NULLs) in every column kind, quote characters inside CSV strings, JSON
// records with absent keys and explicit nulls.
func pushdownEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	csv := "1|10|1.5|aa\n" +
		"2|20||\"bb\"\n" + // null price, quoted string content
		"3||3.5|cc\n" + // null qty
		"4|40|4.5|\n" + // null name
		"5|50|5.5|ee\n" +
		"6|60|-1|aa\n"
	err = eng.RegisterCSV("t", writeTemp(t, "t.csv", csv),
		"id int, qty int, price float, name string", '|')
	if err != nil {
		t.Fatal(err)
	}
	njson := `{"okey":1,"total":100.5,"tag":"x"}
{"okey":2,"tag":"y"}
{"okey":3,"total":null,"tag":"z"}
{"total":55.5,"tag":"x"}
{"okey":5,"total":-3}
`
	err = eng.RegisterJSON("j", writeTemp(t, "j.json", njson),
		"okey int, total float, tag string")
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

var pushdownQueries = []string{
	"SELECT id, qty, name FROM t WHERE qty BETWEEN 20 AND 50",
	"SELECT SUM(price), COUNT(*) FROM t WHERE id >= 2 AND id <= 5",
	"SELECT id FROM t WHERE name = 'aa'",
	"SELECT id FROM t WHERE name = '\"bb\"'",
	"SELECT COUNT(*) FROM t WHERE price > 0 AND name < 'dd'",
	"SELECT id FROM t WHERE qty > 15 AND id + qty > 25", // residual conjunct
	"SELECT okey, tag FROM j WHERE okey >= 2",
	"SELECT SUM(total) FROM j WHERE total > 0",
	"SELECT okey FROM j WHERE tag = 'x' AND okey < 4",
	"SELECT COUNT(*) FROM j WHERE total <= 100.5",
}

// TestPushdownDifferential: every query must return identical rows with
// pushdown on and off, across admission modes and repeated passes (pass 0
// exercises the first scan, pass 1 the positional-map scan or cache hit,
// pass 2 steady state).
func TestPushdownDifferential(t *testing.T) {
	for _, admission := range []string{"off", "eager", "adaptive"} {
		t.Run("admission="+admission, func(t *testing.T) {
			on := pushdownEngine(t, Config{Admission: admission})
			off := pushdownEngine(t, Config{Admission: admission, DisablePushdown: true})
			for pass := 0; pass < 3; pass++ {
				for _, q := range pushdownQueries {
					want, err := off.Query(q)
					if err != nil {
						t.Fatalf("pass %d %q (pushdown off): %v", pass, q, err)
					}
					got, err := on.Query(q)
					if err != nil {
						t.Fatalf("pass %d %q (pushdown on): %v", pass, q, err)
					}
					if !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Fatalf("pass %d %q:\n got %v\nwant %v", pass, q, got.Rows, want.Rows)
					}
				}
			}
			if admission != "off" {
				// With caching on, misses happened on pass 0; the pushdown
				// engine must have pushed conjuncts below those raw scans.
				if st := on.CacheStats(); st.PushdownScans == 0 || st.PushedConjuncts == 0 {
					t.Errorf("pushdown engine never pushed: %+v", st)
				}
			}
		})
	}
}

// TestPushdownConcurrentDifferential: concurrent heterogeneous cold bursts
// return the same results with pushdown on and off.
func TestPushdownConcurrentDifferential(t *testing.T) {
	queries := []string{
		"SELECT SUM(qty) FROM t WHERE id BETWEEN 2 AND 5",
		"SELECT SUM(qty) FROM t WHERE id >= 2",
		"SELECT COUNT(*) FROM t WHERE name = 'aa'",
		"SELECT SUM(price) FROM t WHERE id >= 2 AND id + qty > 20", // residual
	}
	run := func(cfg Config) map[string][][]any {
		eng := pushdownEngine(t, cfg)
		out := make(map[string][][]any)
		var mu sync.Mutex
		for round := 0; round < 3; round++ {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for _, q := range queries {
				wg.Add(1)
				go func(q string) {
					defer wg.Done()
					<-start
					res, err := eng.Query(q)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					out[q] = res.Rows
					mu.Unlock()
				}(q)
			}
			close(start)
			wg.Wait()
		}
		return out
	}
	got := run(Config{Admission: "eager"})
	want := run(Config{Admission: "eager", DisablePushdown: true})
	for _, q := range queries {
		if !reflect.DeepEqual(got[q], want[q]) {
			t.Errorf("%q:\n got %v\nwant %v", q, got[q], want[q])
		}
	}
}

// TestPushdownBurstSkipCounters: a burst of identical selective queries
// with caching off is one pushdown scan of the raw file per query, each
// skipping exactly the 4 non-matching records of the 6-record file, and
// the manager and provider counters agree (run with -race).
func TestPushdownBurstSkipCounters(t *testing.T) {
	eng := pushdownEngine(t, Config{Admission: "off"})
	const workers = 8
	const perScanSkip = 4 // ids 1,2 match BETWEEN 1 AND 2; 4 records fail
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := eng.Query("SELECT SUM(qty) FROM t WHERE id BETWEEN 1 AND 2"); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := eng.CacheStats()
	if st.PushdownScans != workers {
		t.Fatalf("PushdownScans = %d, want %d (one per query)", st.PushdownScans, workers)
	}
	if got := eng.RawScans("t"); got != workers {
		t.Errorf("raw scans = %d, want %d (one per query)", got, workers)
	}
	if st.PushedConjuncts != 2*workers {
		t.Errorf("PushedConjuncts = %d, want %d", st.PushedConjuncts, 2*workers)
	}
	if st.RecordsSkippedEarly != perScanSkip*workers {
		t.Errorf("RecordsSkippedEarly = %d, want %d", st.RecordsSkippedEarly, perScanSkip*workers)
	}
	scans, skipped := eng.RawPushdownStats("t")
	if scans != st.PushdownScans || skipped != st.RecordsSkippedEarly {
		t.Errorf("provider stats (%d, %d) disagree with manager (%d, %d)",
			scans, skipped, st.PushdownScans, st.RecordsSkippedEarly)
	}
}

// TestPushdownStatsSingleQuery: one cold selective query pushes its two
// conjuncts below one raw scan and skips exactly the non-matching records.
func TestPushdownStatsSingleQuery(t *testing.T) {
	eng := pushdownEngine(t, Config{Admission: "off"})
	if _, err := eng.Query("SELECT COUNT(*) FROM j WHERE okey BETWEEN 1 AND 2"); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.PushdownScans != 1 || st.PushedConjuncts != 2 {
		t.Fatalf("stats = %+v, want 1 pushdown scan with 2 conjuncts", st)
	}
	// Records 3 (okey=3), 4 (absent okey) and 5 (okey=5) are skipped early.
	if st.RecordsSkippedEarly != 3 {
		t.Fatalf("RecordsSkippedEarly = %d, want 3", st.RecordsSkippedEarly)
	}
}

// TestExplainPushdownAnnotation: EXPLAIN shows the predicate split on
// Select-over-Scan nodes, and "pushdown: off" under the ablation.
func TestExplainPushdownAnnotation(t *testing.T) {
	eng := pushdownEngine(t, Config{Admission: "off"})
	out, err := eng.Explain("SELECT id FROM t WHERE qty >= 20 AND id + qty > 25")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pushdown: [") || !strings.Contains(out, "residual:") {
		t.Errorf("EXPLAIN missing pushdown/residual annotation:\n%s", out)
	}
	offEng := pushdownEngine(t, Config{Admission: "off", DisablePushdown: true})
	out, err = offEng.Explain("SELECT id FROM t WHERE qty >= 20")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pushdown: off") {
		t.Errorf("EXPLAIN missing 'pushdown: off' under ablation:\n%s", out)
	}
}

// TestPushdownSubsumptionParity: cached-entry contents built under
// pushdown must serve later subsumed queries identically to the ablation —
// the materializer sees exactly the satisfying tuples either way.
func TestPushdownSubsumptionParity(t *testing.T) {
	results := map[bool][]string{}
	for _, disabled := range []bool{false, true} {
		eng := pushdownEngine(t, Config{Admission: "eager", DisablePushdown: disabled})
		var out []string
		for _, q := range []string{
			"SELECT SUM(qty), COUNT(*) FROM t WHERE id BETWEEN 1 AND 5", // builds a wide entry
			"SELECT SUM(qty), COUNT(*) FROM t WHERE id BETWEEN 2 AND 4", // subsumed hit
			"SELECT SUM(qty), COUNT(*) FROM t WHERE id BETWEEN 3 AND 3", // subsumed hit
		} {
			res, err := eng.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(res.Rows))
		}
		st := eng.CacheStats()
		if st.SubsumedHits < 2 {
			t.Fatalf("disabled=%v: subsumed hits = %d, want >= 2", disabled, st.SubsumedHits)
		}
		results[disabled] = out
	}
	if !reflect.DeepEqual(results[false], results[true]) {
		t.Errorf("subsumption results differ:\n on %v\noff %v", results[false], results[true])
	}
}
