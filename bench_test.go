package recache_test

// One benchmark per table/figure of the paper's evaluation (each runs the
// corresponding harness experiment at a small scale; `recache-bench -exp
// <id>` regenerates the full figure), plus the ablation benchmarks DESIGN.md
// calls out and micro-benchmarks of the hot paths.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recache"
	"recache/internal/cache"
	"recache/internal/datagen"
	"recache/internal/eviction"
	"recache/internal/expr"
	"recache/internal/harness"
	"recache/internal/jsonio"
	"recache/internal/stats"
	"recache/internal/store"
	"recache/internal/value"
	"recache/internal/workload"
)

// benchRunner builds a harness runner writing to io.Discard at bench scale.
// RECACHE_SF and RECACHE_QUERIES scale the benchmarks up toward the paper's
// sizes.
func benchRunner(b *testing.B, dir string) *harness.Runner {
	b.Helper()
	sf := 0.0005
	queries := 0.05
	if v := os.Getenv("RECACHE_SF"); v != "" {
		fmt.Sscanf(v, "%g", &sf)
	}
	if v := os.Getenv("RECACHE_QUERIES"); v != "" {
		fmt.Sscanf(v, "%g", &queries)
	}
	return harness.New(harness.Options{
		Dir:     dir,
		SF:      sf,
		Queries: queries,
		Seed:    42,
		Out:     io.Discard,
	})
}

func benchExperiment(b *testing.B, exp string) {
	dir := b.TempDir()
	r := benchRunner(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(exp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- per-figure benchmarks ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig9a(b *testing.B)  { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { benchExperiment(b, "fig9b") }
func BenchmarkFig9c(b *testing.B)  { benchExperiment(b, "fig9c") }
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig11c(b *testing.B) { benchExperiment(b, "fig11c") }
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15a(b *testing.B) { benchExperiment(b, "fig15a") }
func BenchmarkFig15b(b *testing.B) { benchExperiment(b, "fig15b") }

// --- ablation benchmarks (design decisions called out in DESIGN.md) ---

// Ablation 1: Algorithm 1's descending-size reclaim heuristic vs plain
// ascending-H Greedy-Dual eviction. The metric is evictions needed to
// reclaim the same space.
func BenchmarkAblationReclaimHeuristic(b *testing.B) {
	mkItems := func(r *rand.Rand) []eviction.Item {
		items := make([]eviction.Item, 64)
		for i := range items {
			items[i] = eviction.Item{
				ID:      uint64(i),
				Size:    int64(100 + r.Intn(1000)),
				Reuses:  int64(r.Intn(4)),
				OpNanos: int64(r.Intn(100000)),
			}
		}
		return items
	}
	for _, plain := range []bool{false, true} {
		name := "algorithm1"
		if plain {
			name = "plain-greedy-dual"
		}
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewSource(5))
			var evicted int64
			for i := 0; i < b.N; i++ {
				g := eviction.NewGreedyDual()
				g.SetPlain(plain)
				items := mkItems(r)
				for _, it := range items {
					g.OnInsert(it.ID)
				}
				evicted += int64(len(g.Victims(items, 5000)))
			}
			b.ReportMetric(float64(evicted)/float64(b.N), "evictions/op")
		})
	}
}

// Ablation 2: recomputing the benefit metric at every eviction vs freezing
// it at insert time (the paper reports up to 6% workload regression when
// frozen).
func BenchmarkAblationFrozenBenefit(b *testing.B) {
	dir := b.TempDir()
	paths, err := datagen.TPCH(dir, 0.0005, 42)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.SPJ(workload.DefaultTPCHTables(), 30, 42)
	for _, frozen := range []bool{false, true} {
		name := "recomputed"
		if frozen {
			name = "frozen"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := recache.OpenWithManager(cache.NewManager(cache.Config{
					Admission:     cache.AlwaysEager,
					Capacity:      64 << 10,
					FreezeBenefit: frozen,
				}))
				registerBenchTPCH(b, eng, paths)
				runBenchQueries(b, eng, queries)
			}
		})
	}
}

// Ablation 3: sampled cost timers (1/128) vs timing every record (the
// paper: 5–10% overhead when timing everything).
func BenchmarkAblationTimerSampling(b *testing.B) {
	work := func(x int64) int64 { return x*2654435761 + 12345 }
	for _, shift := range []uint{0, stats.SampleShift} {
		name := fmt.Sprintf("shift%d", shift)
		b.Run(name, func(b *testing.B) {
			t := stats.NewSampledTimer(shift, nil)
			var acc int64
			for i := 0; i < b.N; i++ {
				if t.Begin() {
					acc = work(acc)
					t.End()
				} else {
					acc = work(acc)
				}
			}
			if acc == 42 {
				b.Log(acc)
			}
		})
	}
}

// Ablation 4: R-tree subsumption lookup vs a linear scan of the cache.
func BenchmarkAblationSubsumptionIndex(b *testing.B) {
	dir := b.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	var buf []byte
	const nRanges = 1200
	for i := 0; i < 2*nRanges; i++ {
		buf = append(buf, fmt.Sprintf("%d|%d\n", i, i*2)...)
	}
	if err := os.WriteFile(csvPath, buf, 0o644); err != nil {
		b.Fatal(err)
	}
	for _, linear := range []bool{false, true} {
		name := "rtree"
		if linear {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			eng := recache.OpenWithManager(cache.NewManager(cache.Config{
				Admission:         cache.AlwaysEager,
				LinearSubsumption: linear,
			}))
			if err := eng.RegisterCSV("t", csvPath, "a int, c int", '|'); err != nil {
				b.Fatal(err)
			}
			// Populate many disjoint cached ranges; each lookup then probes
			// a large cache, which is where the R-tree's logarithmic
			// candidate generation pays off against the linear scan.
			for lo := 0; lo < 2*nRanges; lo += 2 {
				q := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE a BETWEEN %d AND %d", lo, lo+1)
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * 7) % (2*nRanges - 2)
				q := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE a BETWEEN %d AND %d", lo, lo)
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot paths ---

func benchNestedStore(b *testing.B, layout store.Layout) store.Store {
	b.Helper()
	schema, err := recache.ParseSchema(datagen.SyntheticNestedSchema)
	if err != nil {
		b.Fatal(err)
	}
	recs := datagen.GenerateRecords(schema, 2000, 4, 1)
	bl, err := store.NewBuilder(layout, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs {
		if err := bl.Add(rec); err != nil {
			b.Fatal(err)
		}
	}
	return bl.Finish()
}

func BenchmarkColumnarScanFlat(b *testing.B) {
	s := benchNestedStore(b, store.LayoutColumnar)
	cols := []int{1, 2, 9} // two parents + one nested leaf
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScanFlat(cols, func([]value.Value) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumFlatRows()), "rows/scan")
}

func BenchmarkParquetScanFlat(b *testing.B) {
	s := benchNestedStore(b, store.LayoutParquet)
	cols := []int{1, 2, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScanFlat(cols, func([]value.Value) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumFlatRows()), "rows/scan")
}

func BenchmarkParquetScanRecords(b *testing.B) {
	s := benchNestedStore(b, store.LayoutParquet)
	cols := []int{1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScanRecords(cols, func([]value.Value) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnarScanRecords(b *testing.B) {
	s := benchNestedStore(b, store.LayoutColumnar)
	cols := []int{1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScanRecords(cols, func([]value.Value) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayoutConvert(b *testing.B) {
	p := benchNestedStore(b, store.LayoutParquet)
	b.Run("parquet-to-columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := store.Convert(p, store.LayoutColumnar); err != nil {
				b.Fatal(err)
			}
		}
	})
	c := benchNestedStore(b, store.LayoutColumnar)
	b.Run("columnar-to-parquet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := store.Convert(c, store.LayoutParquet); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkJSONParse(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "d.json")
	if err := datagen.SyntheticNested(path, 1000, 4, 3); err != nil {
		b.Fatal(err)
	}
	schema, err := recache.ParseSchema(datagen.SyntheticNestedSchema)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prov, err := jsonio.New(path, schema)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = prov.Scan(nil, func(rec value.Value, off int64, _ func() error) error {
			n++
			return nil
		})
		if err != nil || n != 1000 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

func BenchmarkFusedPredicate(b *testing.B) {
	schema := value.TRecord(
		value.F("a", value.TInt),
		value.F("c", value.TFloat),
	)
	pred := expr.And(
		expr.Between(expr.C("a"), expr.L(10), expr.L(90)),
		expr.Cmp(expr.OpLt, expr.C("c"), expr.L(0.5)),
	)
	p, err := expr.CompilePredicate(pred, schema)
	if err != nil {
		b.Fatal(err)
	}
	row := expr.Row{value.VInt(50), value.VFloat(0.25)}
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if p(row) {
			hits++
		}
	}
	if hits != b.N {
		b.Fatal("predicate wrong")
	}
}

// BenchmarkParallelCachedQueries measures aggregate throughput of the
// shared-cache engine under concurrent load: a pool of warmed range
// selections (every iteration an exact cache hit) replayed via RunParallel
// at 1, 4, and 16 goroutines. On a machine with enough cores, queries/sec
// should scale well past the single-goroutine baseline now that query
// execution holds no engine-wide lock.
func BenchmarkParallelCachedQueries(b *testing.B) {
	dir := b.TempDir()
	paths, err := datagen.TPCH(dir, 0.001, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := recache.Open(recache.Config{Admission: "eager"})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
		b.Fatal(err)
	}
	var hot []string
	for i := 0; i < 16; i++ {
		lo := 1 + (i*3)%40
		hot = append(hot, fmt.Sprintf(
			"SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity BETWEEN %d AND %d", lo, lo+8))
	}
	for _, q := range hot {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			// workers = parallelism × GOMAXPROCS, so pick GOMAXPROCS as
			// the largest divisor of g within the real core count: the
			// sub-benchmark then runs *exactly* g goroutines (raising
			// GOMAXPROCS past NumCPU only buys OS thread thrash).
			maxp := 1
			for d := 1; d <= g && d <= runtime.NumCPU(); d++ {
				if g%d == 0 {
					maxp = d
				}
			}
			prev := runtime.GOMAXPROCS(maxp)
			defer runtime.GOMAXPROCS(prev)
			b.SetParallelism(g / maxp)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := hot[int(next.Add(1))%len(hot)]
					if _, err := eng.Query(q); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkSharedColdScans measures the miss path under work sharing: each
// iteration fires N concurrent *identical cold* queries (a fresh disjoint
// predicate per iteration, so nothing hits the cache) and reports how many
// raw parses of the file the burst cost. Before the shared-scan
// coordinator every miss parsed the file (N parses per burst); with it,
// concurrent misses batch into shared cycles — steady state is one parse
// per burst, and the very first burst typically pays two (the in-flight
// private scan plus one shared cycle behind it; scheduling stragglers can
// add another cycle).
func BenchmarkSharedColdScans(b *testing.B) {
	dir := b.TempDir()
	// A larger scale than the other benches: the raw scan must outlast the
	// scheduler's preemption quantum for concurrent misses to overlap (and
	// thus have anything to share) even on a single core.
	paths, err := datagen.TPCH(dir, 0.01, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("misses=%d", n), func(b *testing.B) {
			eng, err := recache.Open(recache.Config{Admission: "eager"})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
				b.Fatal(err)
			}
			var parses int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Disjoint ranges (stride > width): no exact or subsumed hit
				// across iterations — every burst is pure cold misses.
				lo := i * 8
				q := fmt.Sprintf("SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN %d AND %d", lo, lo+6)
				burst, err := runBurst(eng, "lineitem", q, n)
				if err != nil {
					b.Fatal(err)
				}
				parses += burst
			}
			b.StopTimer()
			b.ReportMetric(float64(parses)/float64(b.N), "raw-scans/burst")
			st := eng.CacheStats()
			b.ReportMetric(float64(st.SharedConsumers-st.SharedScans)/float64(b.N), "scans-avoided/burst")
		})
	}
}

// runBurst fires w concurrent copies of one query (start-barrier released)
// and returns how many raw scans of table the burst cost.
func runBurst(eng *recache.Engine, table, query string, w int) (int64, error) {
	before := eng.RawScans(table)
	if before < 0 {
		return 0, fmt.Errorf("table %q is not registered or its provider does not count raw scans", table)
	}
	start := make(chan struct{})
	errs := make([]error, w)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			_, errs[g] = eng.Query(query)
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return eng.RawScans(table) - before, nil
}

// BenchmarkPushdownColdScan measures the cold miss path with predicate
// pushdown on vs off: a ~1%-selective aggregation over lineitem (CSV and
// its flat JSON conversion) with caching off, so every iteration pays a
// full raw scan. One untimed query warms the positional map; with pushdown
// the scan then decodes one int per non-matching record and skips the rest
// of the line/object, versus decoding every needed field and filtering
// afterwards. Acceptance bar: ≥3× on CSV, ≥2× on JSON.
func BenchmarkPushdownColdScan(b *testing.B) {
	dir := b.TempDir()
	const sf = 0.004
	paths, err := datagen.TPCH(dir, sf, 42)
	if err != nil {
		b.Fatal(err)
	}
	// ~1% of orders (lineitem.l_orderkey is dense in [1, nOrders]).
	hi := int(sf*1_500_000) / 100
	q := fmt.Sprintf("SELECT SUM(l_extendedprice), SUM(l_quantity), COUNT(*) "+
		"FROM lineitem WHERE l_orderkey BETWEEN 1 AND %d", hi)
	for _, format := range []struct {
		name string
		reg  func(eng *recache.Engine) error
	}{
		{"csv", func(eng *recache.Engine) error {
			return eng.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|')
		}},
		{"json", func(eng *recache.Engine) error {
			return eng.RegisterJSON("lineitem", paths.LineitemJSON, datagen.LineitemSchema)
		}},
	} {
		for _, disabled := range []bool{false, true} {
			mode := "on"
			if disabled {
				mode = "off"
			}
			b.Run(fmt.Sprintf("%s/pushdown=%s", format.name, mode), func(b *testing.B) {
				eng, err := recache.Open(recache.Config{Admission: "off", DisablePushdown: disabled})
				if err != nil {
					b.Fatal(err)
				}
				if err := format.reg(eng); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Query(q); err != nil { // warm the positional map
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Query(q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if scans, skipped := eng.RawPushdownStats("lineitem"); scans > 0 {
					b.ReportMetric(float64(skipped)/float64(scans), "skipped/scan")
				}
			})
		}
	}
}

func BenchmarkEndToEndCachedQuery(b *testing.B) {
	dir := b.TempDir()
	paths, err := datagen.TPCH(dir, 0.001, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := recache.Open(recache.Config{Admission: "eager"})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterJSON("ol", paths.OrderLineitems, datagen.OrderLineitemsSchema); err != nil {
		b.Fatal(err)
	}
	q := "SELECT SUM(lineitems.l_extendedprice) FROM ol WHERE lineitems.l_quantity BETWEEN 10 AND 40"
	if _, err := eng.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultBoundary is the per-layer number of the result boundary: a
// 4096-row, four-column projection hit delivered through each exit and
// consumer. columnar/* is QueryColumnar (what the server encodes from):
// row-sink is rows striped in through Builder.Add (vectorization off, the
// only way to force a cached projection onto the row sink), batch-sink is
// column batches through AppendBatch. query/* is Query boxing natives from
// either shape. client/query is the whole wire round trip including the
// client's column decode, client/exec the same without decoding — the
// difference is the decode.
func BenchmarkResultBoundary(b *testing.B) {
	const sql = "SELECT id, qty, price, name FROM b WHERE id < 4096"
	for _, sink := range []struct {
		name string
		cfg  recache.Config
	}{
		{"row-sink", recache.Config{Admission: "eager", DisableVectorized: true}},
		{"batch-sink", recache.Config{Admission: "eager"}},
	} {
		fx := startBoundary(b, sink.cfg, 8192)
		res, err := fx.eng.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4096 {
			b.Fatalf("%d rows, want 4096", len(res.Rows))
		}
		run := func(name string, fn func() error) {
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("columnar/"+sink.name, func() error { _, err := fx.eng.QueryColumnar(sql); return err })
		run("query/"+sink.name, func() error { _, err := fx.eng.Query(sql); return err })
		if sink.name == "batch-sink" {
			run("client/query", func() error { _, err := fx.cl.Query(sql); return err })
			run("client/exec", func() error { _, _, err := fx.cl.Exec(sql); return err })
		}
	}
}

// --- shared helpers ---

func registerBenchTPCH(b *testing.B, eng *recache.Engine, p *datagen.TPCHPaths) {
	b.Helper()
	for _, t := range []struct{ name, path, schema string }{
		{"customer", p.Customer, datagen.CustomerSchema},
		{"orders", p.Orders, datagen.OrdersSchema},
		{"lineitem", p.Lineitem, datagen.LineitemSchema},
		{"partsupp", p.Partsupp, datagen.PartsuppSchema},
		{"part", p.Part, datagen.PartSchema},
	} {
		if err := eng.RegisterCSV(t.name, t.path, t.schema, '|'); err != nil {
			b.Fatal(err)
		}
	}
}

func runBenchQueries(b *testing.B, eng *recache.Engine, queries []string) time.Duration {
	b.Helper()
	var tot time.Duration
	for _, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		tot += res.Stats.Wall
	}
	return tot
}
