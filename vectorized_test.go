package recache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
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

// --- the acceptance benchmark ---

// benchVecEngine builds an engine over a generated CSV big enough that the
// scan flavor dominates: ~50k rows, selective predicate, aggregate on top.
func benchVecEngine(b *testing.B, disableVec bool) (*Engine, string) {
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
	// Selective predicate (10% of rows) + aggregate: the shape the paper's
	// cache hits take, and the acceptance target's.
	q := "SELECT SUM(price), COUNT(*) FROM big WHERE qty BETWEEN 10 AND 19"
	if _, err := eng.Query(q); err != nil { // warm: build the entry
		b.Fatal(err)
	}
	return eng, q
}

// BenchmarkVectorizedCacheScan compares the two cache-hit pipeline flavors
// on a columnar-layout entry with a selective predicate and an aggregate.
// The acceptance bar is vectorized ≥ 2× row throughput.
func BenchmarkVectorizedCacheScan(b *testing.B) {
	b.Run("vectorized", func(b *testing.B) {
		eng, q := benchVecEngine(b, false)
		out, err := eng.Explain(q)
		if err != nil || !strings.Contains(out, "vectorized") {
			b.Fatalf("plan is not vectorized (err=%v):\n%s", err, out)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if eng.CacheStats().VectorizedScans < int64(b.N) {
			b.Fatalf("vectorized scans = %d, want >= %d", eng.CacheStats().VectorizedScans, b.N)
		}
	})
	b.Run("row", func(b *testing.B) {
		eng, q := benchVecEngine(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
