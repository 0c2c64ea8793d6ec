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

// joinTestEngine registers the join-corpus tables: two flat tables crafted
// for key edge cases (duplicate keys, +0/-0, NaN, NULLs of every kind) and
// the small standard table for three-way joins.
func joinTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	left := "1|1.5|a|10\n" +
		"2|0.0|b|20\n" +
		"2|-0.0|c|30\n" +
		"3|NaN|a|40\n" +
		"|2.5|d|50\n" +
		"5||e|60\n" +
		"7|7.0|b|70\n"
	if err := eng.RegisterCSV("tjl", writeTemp(t, "tjl.csv", left),
		"lk int, lf float, ls string, lv int", '|'); err != nil {
		t.Fatal(err)
	}
	right := "1|-0.0|a|100\n" +
		"2|0.0|b|200\n" +
		"2|2.5|c|300\n" +
		"|NaN|d|400\n" +
		"4|1.5||500\n" +
		"7|-7.0|e|600\n" +
		"2|1.5|a|700\n"
	if err := eng.RegisterCSV("tjr", writeTemp(t, "tjr.csv", right),
		"rk int, rf float, rs string, rv int", '|'); err != nil {
		t.Fatal(err)
	}
	small := "1|10|1.5|aa\n2|20|2.5|bb\n3|30|3.5|cc\n4|40|4.5|dd\n5|50|5.5|ee\n"
	if err := eng.RegisterCSV("t3", writeTemp(t, "t3.csv", small),
		"id int, qty int, price float, name string", '|'); err != nil {
		t.Fatal(err)
	}
	return eng
}

// joinCorpus is the engine-level differential corpus: every join shape the
// executor supports, across key kinds (including Int/Float cross-type),
// NULL keys dropped on both sides, ±0 and NaN float keys, empty build
// sides, duplicate-key fanout, and a three-way join whose outer build side
// is itself a join.
func joinCorpus() []string {
	return []string{
		"SELECT COUNT(*), SUM(lv), SUM(rv) FROM tjl JOIN tjr ON lk = rk",
		"SELECT COUNT(*), SUM(rv) FROM tjl JOIN tjr ON lf = rf",
		"SELECT COUNT(*), SUM(lv) FROM tjl JOIN tjr ON lk = rf",
		"SELECT COUNT(*), SUM(rv) FROM tjl JOIN tjr ON lf = rk",
		"SELECT COUNT(*), SUM(lv), SUM(rv) FROM tjl JOIN tjr ON ls = rs",
		"SELECT COUNT(*), SUM(rv) FROM tjl JOIN tjr ON lk = rk WHERE lv >= 20 AND rv < 600",
		"SELECT COUNT(*), SUM(rv) FROM tjl JOIN tjr ON lk = rk WHERE lv > 1000",
		"SELECT lv, rv FROM tjl JOIN tjr ON lk = rk",
		"SELECT ls, COUNT(*) AS n, SUM(rv) FROM tjl JOIN tjr ON lk = rk GROUP BY ls",
		"SELECT COUNT(*), SUM(price) FROM t3 JOIN tjl ON id = lk JOIN tjr ON lk = rk",
	}
}

// TestVectorizedJoinEngineParity runs the corpus through a vectorized
// engine, a fully row engine, and a no-cache baseline, across layout
// configurations: all three must agree on every query, on the miss and on
// the hits.
func TestVectorizedJoinEngineParity(t *testing.T) {
	configs := []Config{
		{Admission: "eager"},
		{Admission: "eager", Layout: "columnar"},
		{Admission: "eager", Layout: "parquet"},
		{Admission: "lazy"},
	}
	base := joinTestEngine(t, Config{Admission: "off"})
	var want [][][]any
	for _, q := range joinCorpus() {
		res, err := base.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want = append(want, res.Rows)
	}
	for _, cfg := range configs {
		rowCfg := cfg
		rowCfg.DisableVectorized = true
		engVec := joinTestEngine(t, cfg)
		engRow := joinTestEngine(t, rowCfg)
		for pass := 0; pass < 3; pass++ {
			for qi, q := range joinCorpus() {
				for _, e := range []struct {
					name string
					eng  *Engine
				}{{"vec", engVec}, {"row", engRow}} {
					res, err := e.eng.Query(q)
					if err != nil {
						t.Fatalf("cfg %+v pass %d %q (%s): %v", cfg, pass, q, e.name, err)
					}
					if !reflect.DeepEqual(res.Rows, want[qi]) {
						t.Errorf("cfg %+v pass %d %q (%s): %v, want %v",
							cfg, pass, q, e.name, res.Rows, want[qi])
					}
				}
			}
		}
		if got := engRow.CacheStats().VectorizedJoins; got != 0 {
			t.Errorf("cfg %+v: DisableVectorized engine ran %d vectorized joins", cfg, got)
		}
		if cfg.Layout == "columnar" {
			if got := engVec.CacheStats().VectorizedJoins; got == 0 {
				t.Errorf("cfg %+v: vectorized engine ran zero vectorized joins", cfg)
			}
		}
	}
}

// TestVectorizedJoinConcurrentHits replays warmed join queries from many
// goroutines against one shared engine (run under -race in CI): every
// result must match the single-threaded answers, and the batch join must
// actually have served hits.
func TestVectorizedJoinConcurrentHits(t *testing.T) {
	eng := joinTestEngine(t, Config{Admission: "eager", Layout: "columnar"})
	queries := joinCorpus()
	want := make(map[string][][]any, len(queries))
	for _, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.Rows
	}
	const workers, iters = 8, 25
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
	if st.VectorizedJoins == 0 {
		t.Error("concurrent join replay used zero vectorized joins")
	}
	if st.JoinProbeBatches < st.VectorizedJoins {
		t.Errorf("probe batches %d < joins %d", st.JoinProbeBatches, st.VectorizedJoins)
	}
}

// TestExplainShowsJoinFlavor: EXPLAIN annotates Join nodes with the flavor
// the execution would take — "join: vectorized, N probe batches" on warmed
// columnar entries, flipping to "join: row" when vectorized joins are
// disabled and for lazy-entry inputs.
func TestExplainShowsJoinFlavor(t *testing.T) {
	q := "SELECT COUNT(*), SUM(rv) FROM tjl JOIN tjr ON lk = rk"

	eng := joinTestEngine(t, Config{Admission: "eager", Layout: "columnar"})
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "join: vectorized, 1 probe batches") {
		t.Errorf("explain should mark the join vectorized with a probe batch count:\n%s", out)
	}

	off := joinTestEngine(t, Config{Admission: "eager", Layout: "columnar", DisableVectorized: true})
	if _, err := off.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err = off.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "join: row") {
		t.Errorf("explain with vectorization disabled should mark the join row:\n%s", out)
	}
	if strings.Contains(out, "join: vectorized") {
		t.Errorf("explain with vectorization disabled still claims a vectorized join:\n%s", out)
	}

	lazy := joinTestEngine(t, Config{Admission: "lazy"})
	if _, err := lazy.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err = lazy.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "join: row") {
		t.Errorf("explain over lazy entries should mark the join row:\n%s", out)
	}
}

// genProbeCSV is the probe side gr (rk int, rf float, rv int) joined to
// the generated table g: 300 rows over 70 int keys (-25..44) and 20 float
// keys (-0 among them) that partly overlap g's, NULL keys in both columns,
// so every build batch of g carries duplicate keys and a NULL-key word.
func genProbeCSV() string {
	var sb strings.Builder
	for j := 0; j < 300; j++ {
		rk := fmt.Sprint(j%70 - 25)
		if j%50 == 7 {
			rk = ""
		}
		rf := fmt.Sprint(float64(j%20-8) * 0.25)
		if j%40 == 8 {
			rf = "-0"
		}
		if j%60 == 11 {
			rf = ""
		}
		fmt.Fprintf(&sb, "%s|%s|%d\n", rk, rf, j)
	}
	return sb.String()
}

// genJoinCorpus joins g (the build side: a stable cache scan across four
// batches) to gr on int, float and cross-kind keys, under aggregates, a
// GROUP BY over the joined batches, and a row projection.
func genJoinCorpus() []string {
	return []string{
		"SELECT COUNT(*), SUM(w), SUM(rv) FROM g JOIN gr ON k = rk",
		"SELECT COUNT(*), SUM(v), SUM(rv) FROM g JOIN gr ON v = rf",
		"SELECT COUNT(*), SUM(rv) FROM g JOIN gr ON k = rf",
		"SELECT COUNT(*), SUM(id) FROM g JOIN gr ON v = rk WHERE w > 0",
		"SELECT k, COUNT(*), SUM(rv), MIN(v) FROM g JOIN gr ON k = rk WHERE id < 3000 GROUP BY k",
		"SELECT id, v, rv FROM g JOIN gr ON k = rk WHERE id BETWEEN 1280 AND 1310",
	}
}

// TestVectorizedJoinGeneratedParity runs genJoinCorpus through a vectorized
// engine and a DisableVectorized one per configuration, three passes each,
// against a no-cache engine.
func TestVectorizedJoinGeneratedParity(t *testing.T) {
	open := func(cfg Config) *Engine {
		eng := genEngine(t, cfg)
		if err := eng.RegisterCSV("gr", writeTemp(t, "gr.csv", genProbeCSV()),
			"rk int, rf float, rv int", '|'); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	base := open(Config{Admission: "off"})
	var want [][][]any
	for _, q := range genJoinCorpus() {
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
		engVec, engRow := open(cfg), open(rowCfg)
		for pass := 0; pass < 3; pass++ {
			for qi, q := range genJoinCorpus() {
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
		if cfg.Layout == "columnar" && engVec.CacheStats().VectorizedJoins == 0 {
			t.Errorf("cfg %+v: vectorized engine ran zero vectorized joins", cfg)
		}
		if got := engRow.CacheStats().VectorizedJoins; got != 0 {
			t.Errorf("cfg %+v: DisableVectorized engine ran %d vectorized joins", cfg, got)
		}
	}
}

// --- the acceptance benchmark ---

// benchJoinEngine builds an engine over two generated CSVs big enough that
// the join flavor dominates, warms the cache, and returns the hot query:
// a selective build side joined against a wide probe side, aggregate on
// top — the shape the batch pipeline must carry end to end.
func benchJoinEngine(b *testing.B, disableVec bool) (*Engine, string) {
	b.Helper()
	const rows = 50000
	dir := b.TempDir()
	var lb, rb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&lb, "%d|%d|%d.%02d\n", i, i%100, i%500, i%100)
		fmt.Fprintf(&rb, "%d|%d|%d.%02d\n", i, i%100, i%300, i%100)
	}
	lp := filepath.Join(dir, "bigl.csv")
	rp := filepath.Join(dir, "bigr.csv")
	if err := os.WriteFile(lp, []byte(lb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(rp, []byte(rb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	eng, err := Open(Config{Admission: "eager", Layout: "columnar",
		DisableVectorized: disableVec})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterCSV("bigl", lp, "lid int, lqty int, lprice float", '|'); err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterCSV("bigr", rp, "rid int, rqty int, rprice float", '|'); err != nil {
		b.Fatal(err)
	}
	// Build side ~10% of rows, probe side ~80%: the probe loop and the
	// joined-output consumption dominate, as in a warmed join workload.
	q := "SELECT SUM(lprice), SUM(rprice), COUNT(*) FROM bigl JOIN bigr ON lid = rid " +
		"WHERE lqty BETWEEN 10 AND 19 AND rqty < 80"
	if _, err := eng.Query(q); err != nil { // warm: build both entries
		b.Fatal(err)
	}
	return eng, q
}

// BenchmarkVectorizedJoin compares the batch-native join against the row
// engine (DisableVectorized: row scans feeding the row join) over hot
// columnar cache entries (join + aggregate).
func BenchmarkVectorizedJoin(b *testing.B) {
	b.Run("vectorized", func(b *testing.B) {
		eng, q := benchJoinEngine(b, false)
		out, err := eng.Explain(q)
		if err != nil || !strings.Contains(out, "join: vectorized") {
			b.Fatalf("plan is not join-vectorized (err=%v):\n%s", err, out)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := eng.CacheStats().VectorizedJoins; got < int64(b.N) {
			b.Fatalf("vectorized joins = %d, want >= %d", got, b.N)
		}
	})
	b.Run("row", func(b *testing.B) {
		eng, q := benchJoinEngine(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := eng.CacheStats().VectorizedJoins; got != 0 {
			b.Fatalf("row path ran %d vectorized joins", got)
		}
	})
}
