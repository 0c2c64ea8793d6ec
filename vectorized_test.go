package recache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"recache/internal/rawfile/rawfiletest"
)

// vecCorpus is the engine-level differential corpus: every query shape the
// executor supports, exercised against the same two tables testEngine
// registers. Each query runs at least twice per engine, so both the miss
// (materialize) and the hit (cache scan) paths are compared.
func vecCorpus() []string {
	return []string{
		// Flat aggregates: exact hits, subsumption, empty results.
		"SELECT SUM(price) AS s, COUNT(*) FROM t WHERE qty BETWEEN 20 AND 40",
		"SELECT SUM(price), COUNT(*) FROM t WHERE qty BETWEEN 25 AND 35",
		"SELECT MIN(price), MAX(name), AVG(qty), COUNT(id) FROM t WHERE qty >= 20",
		"SELECT COUNT(*) FROM t WHERE qty > 1000",
		"SELECT SUM(qty) FROM t",
		// Group by (string and int keys).
		"SELECT name, COUNT(*) AS n FROM t GROUP BY name",
		"SELECT qty, SUM(price), MIN(name) FROM t WHERE id >= 2 GROUP BY qty",
		// Projections (vectorized column permutation).
		"SELECT name, price FROM t WHERE qty > 35",
		"SELECT price, id, name FROM t WHERE qty BETWEEN 10 AND 50",
		// Nested data: record granularity (Parquet fast path batches) and
		// flattened granularity (FSM row fallback), plus mixed predicates.
		"SELECT SUM(total), COUNT(*) FROM orders WHERE okey >= 2",
		"SELECT SUM(items.price), COUNT(*) FROM orders WHERE items.qty >= 3",
		"SELECT COUNT(*) FROM orders WHERE total >= 100 AND items.qty >= 2",
		"SELECT okey, total FROM orders WHERE total > 150",
		// Joins: cached scans feed the row-path join through the batch→row
		// boundary.
		"SELECT COUNT(*), SUM(price) FROM t JOIN orders ON id = okey WHERE total > 150",
	}
}

// TestVectorizedEngineParity runs the corpus through a vectorized engine, a
// row-path engine, and a no-cache baseline, across admission and layout
// configurations: all three must agree on every query, on the miss and on
// the hits.
func TestVectorizedEngineParity(t *testing.T) {
	configs := []Config{
		{Admission: "eager"},
		{Admission: "eager", Layout: "columnar"},
		{Admission: "eager", Layout: "parquet"},
		{Admission: "lazy"},
		{Admission: "adaptive", AdmissionSampleSize: 2},
	}
	// Baseline: caching off (vectorization never applies).
	base := testEngine(t, Config{Admission: "off"})
	var want [][][]any
	for _, q := range vecCorpus() {
		res, err := base.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want = append(want, res.Rows)
	}
	for _, cfg := range configs {
		vecCfg, rowCfg := cfg, cfg
		rowCfg.DisableVectorized = true
		engVec := testEngine(t, vecCfg)
		engRow := testEngine(t, rowCfg)
		for pass := 0; pass < 3; pass++ {
			for qi, q := range vecCorpus() {
				rv, err := engVec.Query(q)
				if err != nil {
					t.Fatalf("cfg %+v pass %d %q (vec): %v", cfg, pass, q, err)
				}
				rr, err := engRow.Query(q)
				if err != nil {
					t.Fatalf("cfg %+v pass %d %q (row): %v", cfg, pass, q, err)
				}
				if !reflect.DeepEqual(rv.Rows, want[qi]) {
					t.Errorf("cfg %+v pass %d %q: vectorized %v, want %v", cfg, pass, q, rv.Rows, want[qi])
				}
				if !reflect.DeepEqual(rr.Rows, want[qi]) {
					t.Errorf("cfg %+v pass %d %q: row %v, want %v", cfg, pass, q, rr.Rows, want[qi])
				}
			}
		}
		if engRow.CacheStats().VectorizedScans != 0 {
			t.Errorf("cfg %+v: DisableVectorized engine ran %d vectorized scans",
				cfg, engRow.CacheStats().VectorizedScans)
		}
	}
}

// TestVectorizedConcurrentHits replays warmed corpus queries from many
// goroutines against one shared vectorized engine (run under -race in CI):
// every result must match the single-threaded answers, and the batch
// pipeline must actually have served hits.
func TestVectorizedConcurrentHits(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	queries := vecCorpus()
	want := make(map[string][][]any, len(queries))
	for _, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.Rows
	}
	const workers, iters = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := eng.Query(q)
				if err != nil {
					errs <- fmt.Errorf("%q: %w", q, err)
					return
				}
				if !reflect.DeepEqual(res.Rows, want[q]) {
					errs <- fmt.Errorf("%q: %v, want %v", q, res.Rows, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := eng.CacheStats()
	if st.VectorizedScans == 0 {
		t.Error("concurrent hit replay used zero vectorized scans")
	}
	if st.VectorizedBatches < st.VectorizedScans {
		t.Errorf("batches %d < scans %d", st.VectorizedBatches, st.VectorizedScans)
	}
}

// TestExplainShowsVectorizedFlavor: EXPLAIN annotates CachedScan nodes with
// the flavor the hit would take — "vectorized, N batches" on a columnar
// entry, "row" when vectorization is disabled.
func TestExplainShowsVectorizedFlavor(t *testing.T) {
	q := "SELECT SUM(price), COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45"
	eng := testEngine(t, Config{Admission: "eager"})
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CachedScan") || !strings.Contains(out, "vectorized, 1 batches") {
		t.Errorf("explain should mark the CachedScan vectorized with a batch count:\n%s", out)
	}

	off := testEngine(t, Config{Admission: "eager", DisableVectorized: true})
	if _, err := off.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err = off.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(row, tier: ram)") {
		t.Errorf("explain with vectorization disabled should mark the scan row:\n%s", out)
	}
}

// genRows is the generated table's length: three full batches and a part.
const genRows = 3*1024 + 500

// genTableCSV is the generated differential table g (id int, k int,
// v float, w int, s string). Its NULLs sit in a few 64-row words only, so
// most selections take the kernels' null-free branch and some do not:
// v is NULL on rows 650..660 (word 10), so a selection starting at row 661
// has a boundary word holding NULLs it does not select; k (61 distinct
// keys, -20..40) on rows 1290..1299, w on 1100..1130, s on 2400..2409.
// v repeats 40 values, -0 among them.
func genTableCSV() string {
	var sb strings.Builder
	for i := 0; i < genRows; i++ {
		k := fmt.Sprint((i*7)%61 - 20)
		if i >= 1290 && i < 1300 {
			k = ""
		}
		v := fmt.Sprint(float64(i%40-10) * 0.25)
		if i%80 == 10 {
			v = "-0"
		}
		if i >= 650 && i <= 660 {
			v = ""
		}
		w := fmt.Sprint(i%13*3 - 5)
		if i >= 1100 && i <= 1130 {
			w = ""
		}
		s := fmt.Sprintf("s%d", i%9)
		if i >= 2400 && i < 2410 {
			s = ""
		}
		fmt.Fprintf(&sb, "%d|%s|%s|%s|%s\n", i, k, v, w, s)
	}
	return sb.String()
}

// genNestedJSON is the generated nested table gn: 1500 orders whose item
// lists are empty, one element or three elements in turn, so a columnar
// entry has more physical rows than records and its record cursor
// deduplicates record ids across batches.
func genNestedJSON() string {
	var sb strings.Builder
	for i := 0; i < 1500; i++ {
		var items []string
		for j := 0; j < []int{0, 1, 3}[i%3]; j++ {
			items = append(items, fmt.Sprintf(`{"qty":%d,"price":%d.5}`, (i+j)%7, i%50))
		}
		fmt.Fprintf(&sb, `{"okey":%d,"total":%d.25,"items":[%s]}`+"\n", i, i%1700, strings.Join(items, ","))
	}
	return sb.String()
}

// genEngine registers the generated tables g and gn.
func genEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("g", writeTemp(t, "g.csv", genTableCSV()),
		"id int, k int, v float, w int, s string", '|'); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterJSON("gn", writeTemp(t, "gn.json", genNestedJSON()),
		"okey int, total float, items list(qty int, price float)"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// genCorpus runs over the generated tables: both branches of every
// kernel's null-word test, GROUP BY over more int keys than the typed
// table starts with (negative keys and a NULL key among them), NULL
// aggregate arguments, the hashed key path (string, float, two keys), and
// the nested record cursor.
func genCorpus() []string {
	return []string{
		"SELECT COUNT(*), SUM(v), COUNT(v), MIN(v), MAX(v), AVG(w), MIN(s) FROM g",
		"SELECT COUNT(*), SUM(v), MIN(w), MAX(w) FROM g WHERE id BETWEEN 600 AND 1600",
		"SELECT COUNT(*), SUM(v), MIN(w), MAX(w) FROM g WHERE id BETWEEN 661 AND 1500",
		"SELECT COUNT(*), SUM(w), SUM(v) FROM g WHERE id BETWEEN 704 AND 1087",
		"SELECT COUNT(*) FROM g WHERE w <> 4 AND v <> 0.5",
		"SELECT COUNT(*), SUM(id) FROM g WHERE s >= 's4' AND k > -5",
		"SELECT k, COUNT(*), SUM(v), MIN(v), MAX(w), AVG(w), COUNT(w), MAX(s) FROM g GROUP BY k",
		"SELECT k, COUNT(*), SUM(v) FROM g WHERE v >= 0 GROUP BY k",
		"SELECT s, COUNT(*), MIN(s), MAX(w) FROM g GROUP BY s",
		"SELECT v, COUNT(*), SUM(w) FROM g WHERE id < 2000 GROUP BY v",
		"SELECT k, s, COUNT(*), SUM(v) FROM g WHERE w > 0 GROUP BY k, s",
		"SELECT id, k, v, w, s FROM g WHERE id BETWEEN 640 AND 700",
		"SELECT s, v, k FROM g WHERE w BETWEEN 0 AND 10 AND id >= 1000",
		"SELECT SUM(total), COUNT(*), MIN(okey) FROM gn WHERE okey >= 100",
		"SELECT okey, total FROM gn WHERE total > 1400",
		"SELECT okey, COUNT(*), SUM(total) FROM gn WHERE okey < 200 GROUP BY okey",
		"SELECT SUM(items.price), COUNT(*) FROM gn WHERE items.qty >= 2",
	}
}

// TestVectorizedGeneratedParity runs the generated corpus through a
// vectorized engine and a DisableVectorized one per configuration, three
// passes each (the miss, then hits), against a no-cache engine.
func TestVectorizedGeneratedParity(t *testing.T) {
	base := genEngine(t, Config{Admission: "off"})
	var want [][][]any
	for _, q := range genCorpus() {
		res, err := base.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want = append(want, res.Rows)
	}
	for _, cfg := range []Config{
		{Admission: "eager"},
		{Admission: "eager", Layout: "columnar"},
		{Admission: "eager", Layout: "parquet"},
		{Admission: "lazy"},
	} {
		rowCfg := cfg
		rowCfg.DisableVectorized = true
		engVec, engRow := genEngine(t, cfg), genEngine(t, rowCfg)
		for pass := 0; pass < 3; pass++ {
			for qi, q := range genCorpus() {
				for _, e := range []struct {
					name string
					eng  *Engine
				}{{"vec", engVec}, {"row", engRow}} {
					res, err := e.eng.Query(q)
					if err != nil {
						t.Fatalf("cfg %+v pass %d %q (%s): %v", cfg, pass, q, e.name, err)
					}
					if !reflect.DeepEqual(res.Rows, want[qi]) {
						t.Errorf("cfg %+v pass %d %q (%s): %d rows %v, want %d rows %v",
							cfg, pass, q, e.name, len(res.Rows), res.Rows, len(want[qi]), want[qi])
					}
				}
			}
		}
		if cfg.Layout == "columnar" && engVec.CacheStats().VectorizedBatches < 3 {
			t.Errorf("cfg %+v: %d vectorized batches, want the multi-batch path", cfg,
				engVec.CacheStats().VectorizedBatches)
		}
		if got := engRow.CacheStats().VectorizedScans; got != 0 {
			t.Errorf("cfg %+v: DisableVectorized engine ran %d vectorized scans", cfg, got)
		}
	}
}

// TestHitAllocs is the hit path's allocation budget: on a warmed eager
// engine, an aggregate hit, a subsumed aggregate hit, a GROUP BY hit and a
// join hit allocate per batch, not per row. Each query runs over a table
// of 2 048 rows and one of 20 480 (2 and 20 batches, the same 40 keys in
// both); the larger may allocate at most perBatch more objects for each of
// its 18 extra batches, where one allocation per row would add about
// 18 000. perBatch covers the join, which gathers each of its six output
// columns into new vectors per output batch (about 23 objects); the scans
// and folds under the aggregates allocate nothing per batch. The rows
// class is left out: Result.Rows boxes every row by API.
func TestHitAllocs(t *testing.T) {
	if rawfiletest.Race {
		t.Skip("the race detector allocates")
	}
	const perBatch = 32
	queries := []struct{ class, sql string }{
		{"agg-exact", "SELECT COUNT(*), SUM(v), MIN(w), MAX(v), AVG(w) FROM g WHERE k BETWEEN 0 AND 39"},
		{"agg-subsumed", "SELECT SUM(v), COUNT(*) FROM g WHERE k BETWEEN 10 AND 29"},
		{"groupby", "SELECT k, COUNT(*), SUM(v), MAX(w) FROM g WHERE k BETWEEN 0 AND 39 GROUP BY k"},
		{"join", "SELECT COUNT(*), SUM(v), SUM(rv) FROM d JOIN g ON dk = k WHERE k BETWEEN 0 AND 39"},
	}
	// allocs returns each query's allocations per hit over a table of n
	// rows, every query warmed first.
	allocs := func(n int) []float64 {
		var g, d strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&g, "%d|%d|%d.5|%d\n", i, i%50, i%97, i%13)
		}
		for k := 0; k < 50; k++ {
			fmt.Fprintf(&d, "%d|%d\n", k, k*3)
		}
		eng, err := Open(Config{Admission: "eager"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		if err := eng.RegisterCSV("g", writeTemp(t, "g.csv", g.String()), "id int, k int, v float, w int", '|'); err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterCSV("d", writeTemp(t, "d.csv", d.String()), "dk int, rv int", '|'); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := eng.Query(q.sql); err != nil {
				t.Fatal(err)
			}
		}
		misses := eng.CacheStats().Misses
		out := make([]float64, len(queries))
		for i, q := range queries {
			out[i] = testing.AllocsPerRun(10, func() {
				if _, err := eng.Query(q.sql); err != nil {
					t.Fatal(err)
				}
			})
		}
		if s := eng.CacheStats(); s.Misses != misses || s.VectorizedJoins == 0 {
			t.Fatalf("n=%d: %d misses while measuring, %d vectorized joins: every measured query must be a batch hit",
				n, s.Misses-misses, s.VectorizedJoins)
		}
		return out
	}
	const small, large = 2 * 1024, 20 * 1024
	lo, hi := allocs(small), allocs(large)
	for i, q := range queries {
		extra := (large - small) / 1024 * perBatch
		t.Logf("%s: %.0f allocations a hit at %d rows, %.0f at %d", q.class, lo[i], small, hi[i], large)
		if hi[i]-lo[i] > float64(extra) {
			t.Errorf("%s: %.0f allocations a hit at %d rows, %.0f at %d: more than %d a batch",
				q.class, lo[i], small, hi[i], large, perBatch)
		}
	}
}

// --- the hit-path micro-benchmarks ---

// benchVecEngine builds an engine over a generated CSV big enough that the
// scan flavor dominates — ~50k rows — and warms q on it (builds the entry).
func benchVecEngine(b *testing.B, disableVec bool, q string) *Engine {
	b.Helper()
	const rows = 50000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d|%d|%d.%02d|n%d\n", i, i%100, i%500, i%100, i%7)
	}
	path := filepath.Join(b.TempDir(), "big.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	eng, err := Open(Config{Admission: "eager", Layout: "columnar", DisableVectorized: disableVec})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterCSV("big", path,
		"id int, qty int, price float, name string", '|'); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Query(q); err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchHit runs the warmed query q b.N times and, for the vectorized
// flavor, checks that every run took the batch pipeline.
func benchHit(b *testing.B, q string, disableVec bool) {
	eng := benchVecEngine(b, disableVec, q)
	if !disableVec {
		out, err := eng.Explain(q)
		if err != nil || !strings.Contains(out, "vectorized") {
			b.Fatalf("plan is not vectorized (err=%v):\n%s", err, out)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := eng.CacheStats().VectorizedScans; !disableVec && got < int64(b.N) {
		b.Fatalf("vectorized scans = %d, want >= %d", got, b.N)
	}
}

// BenchmarkVectorizedCacheScan compares the two cache-hit pipeline flavors
// on a columnar-layout entry with a selective predicate (10% of rows) and
// an aggregate: the shape the paper's cache hits take.
func BenchmarkVectorizedCacheScan(b *testing.B) {
	const q = "SELECT SUM(price), COUNT(*) FROM big WHERE qty BETWEEN 10 AND 19"
	b.Run("vectorized", func(b *testing.B) { benchHit(b, q, false) })
	b.Run("row", func(b *testing.B) { benchHit(b, q, true) })
}

// BenchmarkVectorizedGroupBy is the GROUP BY hit: a single int key with 50
// groups over half the entry's rows — the group index through the typed
// table, then one typed fold per aggregate.
func BenchmarkVectorizedGroupBy(b *testing.B) {
	const q = "SELECT qty, SUM(price), COUNT(*), MIN(id) FROM big WHERE qty < 50 GROUP BY qty"
	b.Run("vectorized", func(b *testing.B) { benchHit(b, q, false) })
	b.Run("row", func(b *testing.B) { benchHit(b, q, true) })
}
