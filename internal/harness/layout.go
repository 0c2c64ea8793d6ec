package harness

import (
	"math"
	"time"

	"recache"
	"recache/internal/cache"
	"recache/internal/datagen"
	"recache/internal/stats"
	"recache/internal/store"
	"recache/internal/value"
	"recache/internal/workload"
)

// layoutConfigs are the three series of Figures 1 and 9.
func layoutConfigs() []struct {
	name   string
	layout cache.LayoutMode
} {
	return []struct {
		name   string
		layout cache.LayoutMode
	}{
		{"columnar", cache.LayoutFixedColumnar},
		{"parquet", cache.LayoutFixedParquet},
		{"recache", cache.LayoutAuto},
	}
}

// warmFullTable populates a full-table cache entry so the workload measures
// pure cache performance (the paper pre-populates caches for Figs. 1 and 9).
func warmFullTable(eng *recache.Engine, table string) error {
	_, err := eng.Query("SELECT COUNT(*) FROM " + table)
	return err
}

// runLayoutSeries runs the given workload against pre-populated caches in
// each layout mode, returning per-config per-query times.
func (r *Runner) runLayoutSeries(queries []string, olPath string) (map[string][]time.Duration, error) {
	out := map[string][]time.Duration{}
	for _, cfg := range layoutConfigs() {
		eng := newEngine(cache.Config{
			Admission: cache.AlwaysEager,
			Layout:    cfg.layout,
		})
		if err := registerOrderLineitems(eng, olPath); err != nil {
			return nil, err
		}
		if err := warmFullTable(eng, "orderlineitems"); err != nil {
			return nil, err
		}
		ts, err := runSeq(eng, queries)
		if err != nil {
			return nil, err
		}
		out[cfg.name] = ts
	}
	return out, nil
}

// Fig1 reproduces the motivating experiment: Parquet vs relational columnar
// per-query times on the phased orderLineitems workload (no adaptive
// series; that is Fig 9a).
func (r *Runner) Fig1() error {
	p, err := r.ensureTPCH()
	if err != nil {
		return err
	}
	n := r.nq(600)
	queries := workload.PhasedSPA("orderlineitems", workload.OrderLineitemsAttrs(),
		n, workload.PhaseSwitch, r.opts.Seed)
	series, err := r.runLayoutSeries(queries, p.OrderLineitems)
	if err != nil {
		return err
	}
	r.printf("# Fig 1 — per-query execution time (ms); queries 1..%d access all attributes,\n", n/2)
	r.printf("# queries %d..%d only non-nested attributes. Caches pre-populated.\n", n/2+1, n)
	r.printSeries([]string{"rel.columnar", "parquet"},
		[][]time.Duration{series["columnar"], series["parquet"]}, 30)
	cT, pT := total(series["columnar"]), total(series["parquet"])
	c1, p1 := total(series["columnar"][:n/2]), total(series["parquet"][:n/2])
	c2, p2 := cT-c1, pT-p1
	r.printf("phase 1 (all attrs):      columnar %s ms, parquet %s ms → columnar wins: %v\n",
		ms(c1), ms(p1), c1 < p1)
	r.printf("phase 2 (non-nested):     columnar %s ms, parquet %s ms → parquet wins:  %v\n",
		ms(c2), ms(p2), p2 < c2)
	r.printf("totals: columnar %s ms, parquet %s ms — neither layout optimal for both phases\n\n",
		ms(cT), ms(pT))
	return nil
}

// Fig5 measures full flattened scans over in-memory caches of nested data
// with growing list cardinality: the batch cursor the engine reads a cache
// with, where Parquet pays for expanding its records into flattened rows
// and the relational columnar layout, which stores that view, does not.
func (r *Runner) Fig5() error {
	schema, err := recache.ParseSchema(datagen.SyntheticNestedSchema)
	if err != nil {
		return err
	}
	nRec := r.nq(2000)
	r.printf("# Fig 5 — full-scan time (ms) over cached nested data vs list cardinality\n")
	r.printf("%12s %12s %12s %8s\n", "cardinality", "rel.columnar", "parquet", "ratio")
	for _, card := range []int{0, 2, 4, 8, 12, 16, 20} {
		recs := datagen.GenerateRecords(schema, nRec, card, r.opts.Seed+int64(card))
		cs, err := buildStore(store.LayoutColumnar, schema, recs)
		if err != nil {
			return err
		}
		ps, err := buildStore(store.LayoutParquet, schema, recs)
		if err != nil {
			return err
		}
		allCols := allColIdx(cs)
		ct, err := scanTime(cs, allCols, true)
		if err != nil {
			return err
		}
		pt, err := scanTime(ps, allCols, true)
		if err != nil {
			return err
		}
		ratio := float64(pt) / float64(math.Max(float64(ct), 1))
		r.printf("%12d %12s %12s %8.2f\n", card, ms(ct), ms(pt), ratio)
	}
	r.printf("\n")
	return nil
}

// Fig6 measures the time to build (write) a cache of nested data in each
// layout: Parquet's no-duplication striping is cheaper.
func (r *Runner) Fig6() error {
	schema, err := recache.ParseSchema(datagen.SyntheticNestedSchema)
	if err != nil {
		return err
	}
	nRec := r.nq(2000)
	r.printf("# Fig 6 — cache write latency (ms) vs list cardinality\n")
	r.printf("%12s %12s %12s %10s %10s\n", "cardinality", "rel.columnar", "parquet", "colMB", "parqMB")
	for _, card := range []int{0, 2, 4, 8, 12, 16, 20} {
		recs := datagen.GenerateRecords(schema, nRec, card, r.opts.Seed+int64(card))
		var ct, pt time.Duration = 1<<62 - 1, 1<<62 - 1
		var cs, ps store.Store
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			s1, err := buildStore(store.LayoutColumnar, schema, recs)
			if err != nil {
				return err
			}
			if d := time.Since(t0); d < ct {
				ct, cs = d, s1
			}
			t0 = time.Now()
			s2, err := buildStore(store.LayoutParquet, schema, recs)
			if err != nil {
				return err
			}
			if d := time.Since(t0); d < pt {
				pt, ps = d, s2
			}
		}
		r.printf("%12d %12s %12s %10.2f %10.2f\n", card, ms(ct), ms(pt),
			float64(cs.SizeBytes())/1e6, float64(ps.SizeBytes())/1e6)
	}
	r.printf("\n")
	return nil
}

// Fig7 validates the layout cost model: predicted vs measured batch-scan
// cost in both switching directions, reported as a percentage-error CDF.
func (r *Runner) Fig7() error {
	p, err := r.ensureTPCH()
	if err != nil {
		return err
	}
	schema, err := recache.ParseSchema(datagen.OrderLineitemsSchema)
	if err != nil {
		return err
	}
	recs, err := loadJSONRecords(p.OrderLineitems, schema)
	if err != nil {
		return err
	}
	cs, err := buildStore(store.LayoutColumnar, schema, recs)
	if err != nil {
		return err
	}
	ps, err := buildStore(store.LayoutParquet, schema, recs)
	if err != nil {
		return err
	}
	cols := cs.Columns()
	nonNested, nested := splitCols(cols)
	R := float64(cs.NumFlatRows())

	// Query mix mirrors Fig 1: half touch nested attributes, half do not.
	type obs struct {
		rows  int64
		ncols int
		comp  int64
	}
	var parquetHist []obs
	var errs []float64
	rng := newRand(r.opts.Seed + 7)
	n := r.nq(200)
	for qi := 0; qi < n; qi++ {
		useNested := qi%2 == 0
		var idx []int
		idx = append(idx, nonNested[rng.Intn(len(nonNested))])
		if useNested {
			idx = append(idx, nested[rng.Intn(len(nested))])
		} else {
			idx = append(idx, nonNested[rng.Intn(len(nonNested))])
		}
		// Measured Parquet cost and measured columnar cost for the query
		// (best of three runs; at harness scale single scans are noisy).
		var pStats, cStats store.ScanStats
		pWall, cWall := time.Duration(1<<62-1), time.Duration(1<<62-1)
		for rep := 0; rep < 3; rep++ {
			st, w, err := ScanCursor(ps, idx, useNested)
			if err != nil {
				return err
			}
			if w < pWall {
				pStats, pWall = st, w
			}
			if st, w, err = ScanCursor(cs, idx, useNested); err != nil {
				return err
			}
			if w < cWall {
				cStats, cWall = st, w
			}
		}
		ri := float64(ps.NumRecords())
		if useNested {
			ri = R
		}
		// Direction 1: predict columnar from the Parquet observation
		// (eq. 2): D_p · R / r_i.
		predC := float64(pStats.DataNanos) * R / ri
		errs = append(errs, pctErr(predC, float64(cWall.Nanoseconds())))
		// Direction 2: predict Parquet from the columnar observation
		// (eq. 5): (D_c + ComputeCost(r_i, c_i)) · r_i / R.
		cc := float64(pStats.ComputeNanos) // oracle fallback
		best := math.Inf(1)
		for _, h := range parquetHist {
			d := float64(h.rows-int64(ri))*float64(h.rows-int64(ri)) +
				1e6*float64(h.ncols-len(idx))*float64(h.ncols-len(idx))
			if d < best {
				best = d
				cc = float64(h.comp)
			}
		}
		predP := (float64(cStats.DataNanos) + cc) * ri / R
		errs = append(errs, pctErr(predP, float64(pWall.Nanoseconds())))
		parquetHist = append(parquetHist, obs{rows: int64(ri), ncols: len(idx), comp: pStats.ComputeNanos})
	}
	cdf := stats.NewCDF(errs)
	r.printf("# Fig 7 — cost-model percentage error CDF (%d predictions)\n", cdf.N())
	r.printf("P50 error: %6.1f%%   P90: %6.1f%%   P98: %6.1f%%\n",
		cdf.Percentile(0.5), cdf.Percentile(0.9), cdf.Percentile(0.98))
	r.printf("within 10%%: %5.1f%% of queries   within 30%%: %5.1f%%\n",
		100*cdf.FractionBelow(10), 100*cdf.FractionBelow(30))
	r.printf("(paper: ≤10%% error for 90%% of queries, ≤30%% for 98%%)\n\n")
	return nil
}

// Fig9 runs the three adaptive-layout workloads: (a) phase switch at the
// midpoint, (b) alternation every 100 queries, (c) random mix.
func (r *Runner) Fig9(variant string) error {
	p, err := r.ensureTPCH()
	if err != nil {
		return err
	}
	n := r.nq(600)
	var pattern workload.Pattern
	var desc string
	switch variant {
	case "a":
		pattern, desc = workload.PhaseSwitch, "all attrs first half, non-nested second half"
	case "b":
		pattern, desc = workload.Alternate100, "pool alternates every 100 queries"
	default:
		pattern, desc = workload.Random50, "50/50 random mix per query"
	}
	queries := workload.PhasedSPA("orderlineitems", workload.OrderLineitemsAttrs(),
		n, pattern, r.opts.Seed)
	series, err := r.runLayoutSeries(queries, p.OrderLineitems)
	if err != nil {
		return err
	}
	r.printf("# Fig 9%s — per-query time (ms); %s\n", variant, desc)
	r.printSeries([]string{"rel.columnar", "parquet", "recache"},
		[][]time.Duration{series["columnar"], series["parquet"], series["recache"]}, 30)
	cT, pT, rT := total(series["columnar"]), total(series["parquet"]), total(series["recache"])
	opt := minDur(cT, pT)
	r.printf("totals: columnar %s ms, parquet %s ms, recache %s ms\n", ms(cT), ms(pT), ms(rT))
	r.printf("recache closer to optimal(%s ms): vs parquet %.0f%%, vs columnar %.0f%%\n\n",
		ms(opt), closeness(pT, rT, opt), closeness(cT, rT, opt))
	return nil
}

// Fig10 runs 2000-query Symantec workloads with the given percentage of
// nested-attribute queries, cumulative execution time per layout strategy,
// empty caches at start and unlimited capacity.
func (r *Runner) Fig10(nestedPct int) error {
	p, err := r.ensureSymantec()
	if err != nil {
		return err
	}
	n := r.nq(2000)
	queries := workload.Symantec(workload.SymantecOptions{
		JSONTable: "sjson", CSVTable: "scsv",
		N: n, NestedPct: nestedPct, JSONPct: 100, Seed: r.opts.Seed,
	})
	series := map[string][]time.Duration{}
	for _, cfg := range layoutConfigs() {
		eng := newEngine(cache.Config{Admission: cache.AlwaysEager, Layout: cfg.layout})
		if err := registerSymantec(eng, p); err != nil {
			return err
		}
		ts, err := runSeq(eng, queries)
		if err != nil {
			return err
		}
		series[cfg.name] = cumulative(ts)
	}
	r.printf("# Fig 10 (%d%% nested) — cumulative execution time (ms), Symantec JSON, empty cache at start\n", nestedPct)
	r.printSeries([]string{"rel.columnar", "parquet", "recache"},
		[][]time.Duration{series["columnar"], series["parquet"], series["recache"]}, 25)
	last := func(s []time.Duration) time.Duration { return s[len(s)-1] }
	cT, pT, rT := last(series["columnar"]), last(series["parquet"]), last(series["recache"])
	r.printf("totals: columnar %s ms, parquet %s ms, recache %s ms\n", ms(cT), ms(pT), ms(rT))
	r.printf("recache vs columnar: %.0f%% reduction; vs parquet: %.0f%%\n\n",
		pctReduction(cT, rT), pctReduction(pT, rT))
	return nil
}

// Fig11a sweeps the percentage of nested-attribute queries on the Symantec
// mix (90% JSON SPA + 10% CSV⋈JSON SPJ) and reports ReCache's time
// reduction relative to each fixed layout.
func (r *Runner) Fig11a() error {
	p, err := r.ensureSymantec()
	if err != nil {
		return err
	}
	r.printf("# Fig 11a — %%time reduction of ReCache vs fixed layouts, Symantec, sweep nested%%\n")
	r.printf("%10s %16s %16s\n", "nested%", "vs columnar", "vs parquet")
	for _, nested := range []int{0, 20, 40, 60, 80, 100} {
		queries := workload.Symantec(workload.SymantecOptions{
			JSONTable: "sjson", CSVTable: "scsv",
			N: r.nq(240), NestedPct: nested, JSONPct: 90, JoinPct: 10,
			Seed: r.opts.Seed + int64(nested),
		})
		red, err := r.layoutReductions(queries, func(eng *recache.Engine) error {
			return registerSymantec(eng, p)
		})
		if err != nil {
			return err
		}
		r.printf("%10d %15.1f%% %15.1f%%\n", nested, red["columnar"], red["parquet"])
	}
	r.printf("\n")
	return nil
}

// Fig11b is the same sweep on the Yelp dataset.
func (r *Runner) Fig11b() error {
	p, err := r.ensureYelp()
	if err != nil {
		return err
	}
	r.printf("# Fig 11b — %%time reduction of ReCache vs fixed layouts, Yelp, sweep nested%%\n")
	r.printf("%10s %16s %16s\n", "nested%", "vs columnar", "vs parquet")
	tables := workload.YelpTables{Business: "business", User: "yuser", Review: "review"}
	for _, nested := range []int{0, 20, 40, 60, 80, 100} {
		queries := workload.Yelp(tables, r.nq(240), nested, r.opts.Seed+int64(nested))
		red, err := r.layoutReductions(queries, func(eng *recache.Engine) error {
			return registerYelp(eng, p)
		})
		if err != nil {
			return err
		}
		r.printf("%10d %15.1f%% %15.1f%%\n", nested, red["columnar"], red["parquet"])
	}
	r.printf("\n")
	return nil
}

// Fig11c sweeps the percentage of queries going to JSON (vs CSV) with
// nested accesses confined to the last half of the sequence.
func (r *Runner) Fig11c() error {
	p, err := r.ensureSymantec()
	if err != nil {
		return err
	}
	r.printf("# Fig 11c — %%time reduction of ReCache vs fixed layouts, sweep %%JSON queries\n")
	r.printf("%10s %16s %16s\n", "json%", "vs columnar", "vs parquet")
	for _, jsonPct := range []int{0, 20, 40, 60, 80, 100} {
		queries := workload.Symantec(workload.SymantecOptions{
			JSONTable: "sjson", CSVTable: "scsv",
			N: r.nq(240), NestedPct: 100, JSONPct: jsonPct,
			NestedLastHalfOnly: true,
			Seed:               r.opts.Seed + int64(jsonPct),
		})
		red, err := r.layoutReductions(queries, func(eng *recache.Engine) error {
			return registerSymantec(eng, p)
		})
		if err != nil {
			return err
		}
		r.printf("%10d %15.1f%% %15.1f%%\n", jsonPct, red["columnar"], red["parquet"])
	}
	r.printf("\n")
	return nil
}

// layoutReductions runs a workload under the three layout configs and
// returns ReCache's percentage reduction vs each fixed layout.
func (r *Runner) layoutReductions(queries []string, register func(*recache.Engine) error) (map[string]float64, error) {
	totals := map[string]time.Duration{}
	for _, cfg := range layoutConfigs() {
		eng := newEngine(cache.Config{Admission: cache.AlwaysEager, Layout: cfg.layout})
		if err := register(eng); err != nil {
			return nil, err
		}
		ts, err := runSeq(eng, queries)
		if err != nil {
			return nil, err
		}
		totals[cfg.name] = total(ts)
	}
	return map[string]float64{
		"columnar": pctReduction(totals["columnar"], totals["recache"]),
		"parquet":  pctReduction(totals["parquet"], totals["recache"]),
	}, nil
}

// --- store-level helpers ---

func buildStore(layout store.Layout, schema *value.Type, recs []value.Value) (store.Store, error) {
	b, err := store.NewBuilder(layout, schema)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := b.Add(rec); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}

func allColIdx(s store.Store) []int {
	idx := make([]int, len(s.Columns()))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func splitCols(cols []value.LeafColumn) (nonNested, nested []int) {
	for i, c := range cols {
		if c.Repeated {
			nested = append(nested, i)
		} else {
			nonNested = append(nonNested, i)
		}
	}
	return nonNested, nested
}

// scanTime measures a scan as the minimum of five runs (standard
// microbenchmark practice; single runs are dominated by page-fault and
// scheduler noise at harness scale).
func scanTime(s store.Store, cols []int, flat bool) (time.Duration, error) {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 5; i++ {
		_, wall, err := ScanCursor(s, cols, flat)
		if err != nil {
			return 0, err
		}
		best = min(best, wall)
	}
	return best, nil
}

// scanSink keeps the drained values live.
var scanSink float64

// ScanCursor times one scan of s as the engine runs it: a batch cursor
// opened and drained, every selected value of every projected vector read.
// The cost split is the one the engine reports to the layout advisor: the
// cursor's record expansion is C_i, the rest of the wall time D_i.
func ScanCursor(s store.Store, cols []int, flat bool) (store.ScanStats, time.Duration, error) {
	t0 := time.Now()
	cur, err := s.BatchCursor(flat, cols)
	if err != nil {
		return store.ScanStats{}, 0, err
	}
	var sum float64
	var batches int64
	buf := make([]int32, store.BatchRows)
	for sel := cur.Next(buf); sel != nil; sel = cur.Next(buf) {
		batches++
		for _, v := range cur.Cols {
			switch v.Kind {
			case value.Int:
				for _, r := range sel {
					sum += float64(v.Ints[r])
				}
			case value.Float:
				for _, r := range sel {
					sum += v.Floats[r]
				}
			case value.String:
				for _, r := range sel {
					sum += float64(len(v.Strs[r]))
				}
			case value.Bool:
				for _, r := range sel {
					if v.Bools[r] {
						sum++
					}
				}
			}
		}
	}
	wall := time.Since(t0)
	scanSink += sum
	return store.ScanStats{
		DataNanos:    wall.Nanoseconds() - cur.ComputeNanos,
		ComputeNanos: cur.ComputeNanos,
		RowsScanned:  cur.Rows,
		Batches:      batches,
	}, wall, nil
}

func pctErr(pred, actual float64) float64 {
	if actual <= 0 {
		return 0
	}
	return 100 * math.Abs(pred-actual) / actual
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// closeness computes how much closer x is to opt than base is: the paper's
// "execution time 53% closer to the optimal than Parquet" metric.
func closeness(base, x, opt time.Duration) float64 {
	gapBase := float64(base - opt)
	gapX := float64(x - opt)
	if gapBase <= 0 {
		return 0
	}
	return 100 * (gapBase - gapX) / gapBase
}

func loadJSONRecords(path string, schema *value.Type) ([]value.Value, error) {
	prov, err := newJSONProvider(path, schema)
	if err != nil {
		return nil, err
	}
	var out []value.Value
	err = prov.Scan(nil, func(rec value.Value, off int64, _ func() error) error {
		out = append(out, value.Value{Kind: value.Record, L: append([]value.Value(nil), rec.L...)})
		return nil
	})
	return out, err
}
