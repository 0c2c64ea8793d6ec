package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"recache"
)

// explore and churn are single-client workloads: one goroutine replays a
// fixed query sequence, round after round, each round on a fresh engine,
// until the window's seconds have passed. A round is the unit that
// repeats, so every per-round number has several samples to take a median
// over and a stall in one round cannot move it.

// setupSeq generates the data and opens an engine on it once, as a
// session's first query would need; rounds open their own engines.
func setupSeq(o options, dir string, ref *reference) (*dataset, error) {
	d, err := genData(dir, o.sf, o.seed)
	if err != nil {
		return nil, err
	}
	ref.burst(20)
	eng, err := d.open(recache.Config{})
	if err != nil {
		return nil, err
	}
	return d, eng.Close()
}

// seqSpec is what one round replays.
type seqSpec struct {
	cfg recache.Config
	seq []query
	// before runs ahead of query i (churn appends rows there); reset
	// restores the files a round mutates.
	before func(i int) error
	reset  func() error
	// want[i] is query i's reference answer.
	want []answer
}

// roundResult is one round as its client saw it.
type roundResult struct {
	samples  []sample
	counters engineCounters // at the end of the round, on a fresh engine
	wallS    float64        // whole round, replays included
	cpuS     float64        // process CPU time the round took
	ref      []float64      // reference readings, one after every query
}

const traceEverySeq = 4

func runRound(o options, d *dataset, sp seqSpec, tr *tracer, fails *failures) (roundResult, error) {
	var rr roundResult
	start, cpu0, ref := time.Now(), cpuSeconds(), new(reference)
	if sp.reset != nil {
		if err := sp.reset(); err != nil {
			return rr, err
		}
	}
	eng, err := d.open(sp.cfg)
	if err != nil {
		return rr, err
	}
	defer eng.Close()
	rr.samples = make([]sample, 0, len(sp.seq))
	for i, q := range sp.seq {
		if sp.before != nil {
			if err := sp.before(i); err != nil {
				return rr, err
			}
		}
		before := eng.CacheStats()
		t0 := time.Now()
		res, err := eng.Query(q.SQL)
		t1 := time.Now()
		if err != nil {
			fails.add("%s: %v", q.SQL, err)
			continue
		}
		s := sample{q: int32(i), class: uint8(q.Class), miss: scannedRaw(before, eng.CacheStats()),
			lat: t1.Sub(t0).Nanoseconds(), wall: res.Stats.Wall.Nanoseconds(),
			build: res.Stats.CacheBuild.Nanoseconds(), scan: res.Stats.CacheScan.Nanoseconds()}
		rr.samples = append(rr.samples, s)
		if !sameAnswer(answer{res.Columns, res.Rows}, sp.want[i]) {
			fails.add("query %d %s: answer differs from the oracle's (stale or wrong)", i, q.SQL)
		}
		if tr != nil && i%traceEverySeq == 0 {
			if err := tr.replayQuery(eng, nil, q.SQL, s.miss, t0, t1); err != nil {
				fails.add("trace replay %s: %v", q.SQL, err)
			}
		}
		ref.run(start)
	}
	rr.counters, rr.ref = readCounters(eng, d), ref.durs
	rr.wallS, rr.cpuS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return rr, nil
}

// scannedRaw reports whether the query between two counter snapshots read
// a raw file: it missed, or it hit a lazy entry (offsets only) and replayed
// them against the file to upgrade it. Everything else was served entirely
// from cached tuples.
func scannedRaw(before, after recache.CacheStats) bool {
	return after.Misses > before.Misses || after.LazyUpgrades > before.LazyUpgrades
}

// runRounds repeats rounds until dur has passed (at least one).
func runRounds(o options, d *dataset, sp seqSpec, dur time.Duration, tr *tracer, fails *failures) ([]roundResult, error) {
	var out []roundResult
	for start := time.Now(); len(out) == 0 || time.Since(start) < dur; {
		rr, err := runRound(o, d, sp, tr, fails)
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

// baseline is the no-cache engine's side of a sequence workload: query i's
// latency there (0: not sampled) and the reference readings taken between
// those queries.
type baseline struct {
	lat []float64
	ref []float64
}

// seqEndToEnd computes the end-to-end metrics of a sequence workload, each
// round at its own speed factor. Per-round numbers are reported as
// the median over rounds, so a stall in one round cannot move them.
func seqEndToEnd(v view, rounds []roundResult, base baseline, setups setupTimings) map[string]float64 {
	cBase := v.factor(base.ref)
	var hits, qps, speedup, missMean, overhead, cpu []float64
	for _, rr := range rounds {
		c := v.factor(rr.ref)
		var total, cached, raw, miss, misses, missCached, missRaw float64
		for _, s := range rr.samples {
			lat := float64(s.lat) / c
			total += lat
			if s.miss {
				miss += lat
				misses++
			} else {
				hits = append(hits, lat)
			}
			if base.lat[s.q] == 0 {
				continue
			}
			cached += lat
			raw += base.lat[s.q] / cBase
			if s.miss {
				missCached += lat
				missRaw += base.lat[s.q] / cBase
			}
		}
		n := float64(len(rr.samples))
		qps = append(qps, ratio(n, total/1e9)) // N / sum of latencies: inline checks are not counted
		speedup = append(speedup, ratio(raw, cached))
		missMean = append(missMean, ratio(miss, misses)/1e6)
		overhead = append(overhead, ratio(missCached, missRaw))
		cpu = append(cpu, ratio(rr.cpuS*1e6, n)/c)
	}
	return map[string]float64{
		"setup_s":        setups.seconds(v),
		"qps":            median(qps),
		"hit_lat_p50_us": percentile(hits, 0.5) / 1e3,
		"hit_lat_p95_us": percentile(hits, 0.95) / 1e3,
		// Admission decides per entry between eager and lazy caching, which
		// cost a miss very differently, so miss latencies have two modes and
		// their median jumps between them; the mean moves with the mix.
		"miss_lat_mean_ms":    median(missMean),
		"speedup_vs_nocache":  median(speedup),
		"miss_overhead_ratio": median(overhead),
		"cpu_us_per_query":    median(cpu),
		"rss_peak_mb":         rssPeakMB(),
	}
}

// runSeq runs a sequence workload's window and turns it into an outcome.
func runSeq(o options, d *dataset, sp seqSpec, base baseline, setups setupTimings, out *outcome) error {
	if o.trace {
		return tracedSeq(o, d, sp, out)
	}
	rounds, err := runRounds(o, d, sp, o.window(), nil, &out.fails)
	if err != nil {
		return err
	}
	out.attempted += len(rounds) * len(sp.seq)
	out.metrics = seqEndToEnd(reported, rounds, base, setups)
	out.raw = seqEndToEnd(raw, rounds, base, setups)
	return nil
}

// tracedSeq is the traced run of a sequence workload: untraced rounds for
// half the window, traced rounds for the other half, then the probes.
func tracedSeq(o options, d *dataset, sp seqSpec, out *outcome) error {
	records, err := d.recordCounts()
	if err != nil {
		return err
	}
	rt := startGoRuntime()
	untraced, err := runRounds(o, d, sp, o.window()/2, nil, &out.fails)
	if err != nil {
		return err
	}
	var ss []sample
	var counters []map[string]float64
	var vecJoins int64
	var wallQPS, factors []float64
	for _, rr := range untraced {
		factors = append(factors, reported.factor(rr.ref))
		ss = append(ss, rr.samples...)
		counters = append(counters, counterMetrics(d, engineCounters{}, rr.counters, records))
		vecJoins += rr.counters.cs.VectorizedJoins
		wallQPS = append(wallQPS, ratio(float64(len(rr.samples)), rr.wallS))
	}
	rtm := rt.metrics(len(ss))

	tr := newTracer(d, false)
	traced, err := runRounds(o, d, sp, o.window()/2, tr, &out.fails)
	if err != nil {
		return err
	}
	var tracedQPS []float64
	for _, rr := range traced {
		tracedQPS = append(tracedQPS, ratio(float64(len(rr.samples)), rr.wallS))
	}
	out.attempted = (len(untraced) + len(traced)) * len(sp.seq)
	if out.tracePath, err = tr.write(o.out, o.workload, o.seed); err != nil {
		return err
	}
	probes, err := runProbes(o, d, nil, nil)
	if err != nil {
		return err
	}
	out.metrics = merge(probes, medianMaps(counters), sampleMetrics(ss, vecJoins), rtm,
		traceMetrics(tr, median(wallQPS), median(tracedQPS)),
		// No server is ever constructed: the serving stack does no work here.
		map[string]float64{"server.requests": 0, "server.errors": 0, "machine.speed_factor": median(factors)})
	return nil
}

// exploreCapacity bounds explore's cache at about 40% of what the
// sequence caches when unbounded (measured on the seed commit as a
// multiple of lineitem.csv's size, so it scales with --sf and needs no
// calibration pass whose admission decisions would vary from run to run).
func exploreCapacity(d *dataset) int64 { return int64(exploreCapacityFactor * float64(d.lineitemBase)) }

const exploreCapacityFactor = 2.2

func runExplore(o options) (*outcome, error) {
	d, setups, err := repeatSetup(o, func(dir string, ref *reference) (*dataset, error) { return setupSeq(o, dir, ref) })
	if err != nil {
		return nil, err
	}
	sp := seqSpec{
		cfg: o.engineConfig(recache.Config{CacheCapacity: exploreCapacity(d)}),
		seq: exploreRound(rand.New(rand.NewSource(o.seed)), o.sf),
	}
	out := &outcome{}
	if out.hash, err = d.workloadHash(sqlsOf(sp.seq)); err != nil {
		return nil, err
	}
	// Oracle pass: the no-cache engine answers the whole sequence once, in
	// order, so it pays each table's first scan on the same query the
	// cached engine does and the per-query ratios compare like with like.
	oracle, err := d.open(oracleConfig(""))
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	base, ref := baseline{lat: make([]float64, len(sp.seq))}, new(reference)
	sp.want = make([]answer, len(sp.seq))
	for i, q := range sp.seq {
		start := time.Now()
		res, err := oracle.Query(q.SQL)
		base.lat[i] = float64(time.Since(start).Nanoseconds())
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", q.SQL, err)
		}
		sp.want[i] = answer{res.Columns, res.Rows}
		ref.run(start)
	}
	oracle.Close()
	base.ref = ref.durs
	return out, runSeq(o, d, sp, base, setups, out)
}

// Churn's shape: a round is churnQueries draws from the pool with a batch
// of churnBatchRows rows appended to lineitem.csv after every
// churnAppendEvery-th query, by the querying goroutine itself (lockstep,
// no timers, so the counters nearly repeat).
const (
	churnQueries     = 600
	churnAppendEvery = 50
	churnBatchRows   = 100
	// churnCapacityFactor bounds the cache at about a fifth of the pool's
	// resident footprint, as a multiple of lineitem.csv's size.
	churnCapacityFactor = 0.5
)

func runChurn(o options) (*outcome, error) {
	d, setups, err := repeatSetup(o, func(dir string, ref *reference) (*dataset, error) { return setupSeq(o, dir, ref) })
	if err != nil {
		return nil, err
	}
	pool := churnPool(rand.New(rand.NewSource(o.seed)), o.sf)
	dr, shape := newDrawer(pool), shapeRand()
	seq := make([]query, churnQueries)
	for i := range seq {
		seq[i] = pool[dr.draw(shape)]
	}
	spill := filepath.Join(o.tmp, "spill")
	sp := seqSpec{
		cfg: o.engineConfig(recache.Config{FreshnessMode: "check", SpillDir: spill,
			CacheCapacity: int64(churnCapacityFactor * float64(d.lineitemBase))}),
		seq: seq,
		before: func(i int) error {
			if i == 0 || i%churnAppendEvery != 0 {
				return nil
			}
			return d.appendBatch(o.seed, i/churnAppendEvery, churnBatchRows)
		},
		reset: func() error {
			if err := os.Truncate(d.paths.Lineitem, d.lineitemBase); err != nil {
				return err
			}
			return os.RemoveAll(spill)
		},
	}
	out := &outcome{}
	if out.hash, err = d.workloadHash(sqlsOf(seq)); err != nil {
		return nil, err
	}
	base, err := churnOracleRound(o, d, &sp, out)
	if err != nil {
		return nil, err
	}
	return out, runSeq(o, d, sp, base, setups, out)
}

// churnOracleRound is an untimed round that builds the reference answers.
// Every round replays the same sequence over the same file states, so
// query i has one right answer. The round takes it from the engine under
// test and checks it two ways: every query that read a raw file, every fourth query and the
// first lineitem query after each append are also answered by a no-cache
// engine that follows the file (its latency is the no-cache baseline);
// and that first query after each append is answered once more by a cold
// no-cache engine opened on the file as it is then, which shares no
// freshness state with anything, so a stale read cannot pass.
func churnOracleRound(o options, d *dataset, sp *seqSpec, out *outcome) (baseline, error) {
	base, ref := baseline{lat: make([]float64, len(sp.seq))}, new(reference)
	if err := sp.reset(); err != nil {
		return base, err
	}
	eng, err := d.open(sp.cfg)
	if err != nil {
		return base, err
	}
	defer eng.Close()
	follower, err := d.open(oracleConfig("check"))
	if err != nil {
		return base, err
	}
	defer follower.Close()
	sp.want = make([]answer, len(sp.seq))
	appended := false
	for i, q := range sp.seq {
		if err := sp.before(i); err != nil {
			return base, err
		}
		if i > 0 && i%churnAppendEvery == 0 {
			appended = true
		}
		before := eng.CacheStats()
		res, err := eng.Query(q.SQL)
		if err != nil {
			return base, fmt.Errorf("churn reference %q: %w", q.SQL, err)
		}
		sp.want[i] = answer{res.Columns, res.Rows}
		afterAppend := appended && q.Table == tLineitem
		if !afterAppend && i%4 != 0 && !scannedRaw(before, eng.CacheStats()) {
			continue
		}
		out.attempted++
		start := time.Now()
		ores, err := follower.Query(q.SQL)
		base.lat[i] = float64(time.Since(start).Nanoseconds())
		if err != nil {
			return base, fmt.Errorf("oracle %q: %w", q.SQL, err)
		}
		ref.run(start)
		if !sameAnswer(sp.want[i], answer{ores.Columns, ores.Rows}) {
			out.fails.add("query %d %s: answer differs from the no-cache engine's", i, q.SQL)
		}
		if !afterAppend {
			continue
		}
		appended = false
		cold, err := d.open(oracleConfig(""))
		if err != nil {
			return base, err
		}
		cres, err := cold.Query(q.SQL)
		cold.Close()
		if err != nil {
			return base, fmt.Errorf("cold oracle %q: %w", q.SQL, err)
		}
		if !sameAnswer(sp.want[i], answer{cres.Columns, cres.Rows}) {
			out.fails.add("query %d %s: stale read (a cold engine on the current file answers differently)", i, q.SQL)
		}
	}
	base.ref = ref.durs
	return base, nil
}
