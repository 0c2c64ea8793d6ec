package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"recache"
)

// options is one run's configuration. The driver sets workload, seed,
// seconds and trace; the rest have defaults it never overrides.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sf       float64
	ablate   string // "", "pushdown" or "vectorized": an engine knob switched off
	tmp      string // scratch directory (data, spill files, socket)
	out      string // where a traced run writes trace-<workload>.json
	// setups is how often the set-up is repeated; setup_s is their median
	// and the last one is kept for the window.
	setups int
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// engineConfig applies the ablation knob to the engine under test (never
// to the oracle).
func (o options) engineConfig(cfg recache.Config) recache.Config {
	switch o.ablate {
	case "pushdown":
		cfg.DisablePushdown = true
	case "vectorized":
		cfg.DisableVectorized = true
	}
	return cfg
}

// clients is the number of closed-loop clients of the hot workloads, and
// GOMAXPROCS: at most one per processor, at most two.
func clients() int { return min(runtime.NumCPU(), 2) }

// sample is one executed query as its client saw it.
type sample struct {
	q     int32 // index into the pool or sequence
	class uint8
	miss  bool  // the query read at least one raw file (see scannedRaw)
	lat   int64 // client-observed latency, ns
	wall  int64 // engine-reported execution time (Result.Stats.Wall), ns
	build int64 // Result.Stats.CacheBuild, ns
	scan  int64 // Result.Stats.CacheScan, ns
	end   int64 // completion time since the window opened, ns
}

// outcome is what a run reports. raw holds the end-to-end metrics as the
// clocks read them, before the speed correction.
type outcome struct {
	attempted int
	fails     failures
	metrics   map[string]float64
	raw       map[string]float64
	hash      string
	tracePath string
}

// setupResult is what one set-up hands to the window.
type setupResult interface{ close() }

// setupTimings are the set-ups' durations, each with the reference
// readings taken during it: a burst right before, a burst right after, and
// whatever the set-up itself interleaved (the reference cannot run inside
// datagen).
type setupTimings struct {
	secs []float64
	refs [][]float64
}

// seconds is setup_s: the median set-up at its speed factor.
func (t setupTimings) seconds(v view) float64 {
	out := make([]float64, len(t.secs))
	for i, s := range t.secs {
		out[i] = s / v.factor(t.refs[i])
	}
	return median(out)
}

// repeatSetup runs the set-up o.setups times, each into a fresh directory,
// tearing down all but the last, and returns the last with every set-up's
// duration.
func repeatSetup[T setupResult](o options, setup func(dir string, ref *reference) (T, error)) (T, setupTimings, error) {
	var kept T
	var times setupTimings
	const burst = 40
	for i := 0; i < o.setups; i++ {
		dir := filepath.Join(o.tmp, fmt.Sprintf("data-%d", i))
		ref := new(reference)
		ref.burst(burst)
		start := time.Now()
		env, err := setup(dir, ref)
		if err != nil {
			return kept, times, err
		}
		times.secs = append(times.secs, time.Since(start).Seconds())
		ref.burst(burst)
		times.refs = append(times.refs, ref.durs)
		if i == o.setups-1 {
			kept = env
			break
		}
		env.close()
		if err := os.RemoveAll(dir); err != nil {
			return kept, times, err
		}
		runtime.GC() // the next set-up starts from a clean heap, like the first
	}
	return kept, times, nil
}

// lats extracts the latencies (ns) of the samples keep selects.
func lats(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, float64(s.lat))
		}
	}
	return out
}

// engineCounters is the engine's public counters at one instant.
type engineCounters struct {
	cs        recache.CacheStats
	rawScans  map[string]int64
	pushScans map[string]int64
	skipped   map[string]int64
	reused    int // live entries hit at least once
}

func readCounters(eng *recache.Engine, d *dataset) engineCounters {
	c := engineCounters{cs: eng.CacheStats(), rawScans: map[string]int64{},
		pushScans: map[string]int64{}, skipped: map[string]int64{}}
	for _, t := range d.tables {
		if n := eng.RawScans(t.name); n > 0 {
			c.rawScans[t.name] = n
		}
		if scans, skipped := eng.RawPushdownStats(t.name); scans > 0 {
			c.pushScans[t.name], c.skipped[t.name] = scans, skipped
		}
	}
	for _, e := range eng.CacheEntries() {
		if e.Reuses > 0 {
			c.reused++
		}
	}
	return c
}

// totalRawScans sums raw scans over all tables.
func (c engineCounters) totalRawScans() int64 {
	var n int64
	for _, v := range c.rawScans {
		n += v
	}
	return n
}

// counterMetrics turns the counters accumulated between two instants into
// the per-layer counter metrics. Gauges (resident_mb) read the later one.
func counterMetrics(d *dataset, before, after engineCounters, records map[string]int64) map[string]float64 {
	a, b := after.cs, before.cs
	hits := float64(a.ExactHits - b.ExactHits + a.SubsumedHits - b.SubsumedHits)
	misses := float64(a.Misses - b.Misses)
	m := map[string]float64{
		"cache.exact_hits":          float64(a.ExactHits - b.ExactHits),
		"cache.subsumed_hits":       float64(a.SubsumedHits - b.SubsumedHits),
		"cache.misses":              misses,
		"cache.inserted":            float64(a.Inserted - b.Inserted),
		"cache.evictions":           float64(a.Evictions - b.Evictions),
		"cache.lazy_upgrades":       float64(a.LazyUpgrades - b.LazyUpgrades),
		"cache.layout_switches":     float64(a.LayoutSwitches - b.LayoutSwitches),
		"cache.spills":              float64(a.Spills - b.Spills),
		"cache.disk_hits":           float64(a.DiskHits - b.DiskHits),
		"cache.spill_drops":         float64(a.SpillDrops - b.SpillDrops),
		"cache.tail_extensions":     float64(a.TailExtensions - b.TailExtensions),
		"cache.stale_invalidations": float64(a.StaleInvalidations - b.StaleInvalidations),
		"cache.tail_bytes_scanned":  float64(a.TailBytesScanned - b.TailBytesScanned),
		"cache.resident_mb":         float64(a.TotalBytes) / (1 << 20),
		"cache.hit_ratio":           ratio(hits, hits+misses),
		// Entries evicted before the snapshot are not visible, so on a
		// bounded cache this is a lower bound.
		"cache.reuse_ratio":     ratio(float64(after.reused), float64(a.Inserted)),
		"exec.vectorized_ratio": ratio(float64(a.VectorizedScans-b.VectorizedScans), hits),
	}
	var examined, skipped float64
	for _, t := range d.tables {
		key := "csvio.raw_scans"
		if t.json {
			key = "jsonio.raw_scans"
		}
		m[key] += float64(after.rawScans[t.name] - before.rawScans[t.name])
		examined += float64(after.pushScans[t.name]-before.pushScans[t.name]) * float64(records[t.name])
		skipped += float64(after.skipped[t.name] - before.skipped[t.name])
	}
	m["pushdown.skipped_ratio"] = ratio(skipped, examined)
	return m
}

// sampleMetrics turns untraced samples into the per-layer metrics that
// come from Result.Stats and client clocks.
func sampleMetrics(ss []sample, vecJoins int64) map[string]float64 {
	m := map[string]float64{}
	var wall, scan, missWall, missBuild float64
	byClass := make([][]sample, numClasses)
	for _, s := range ss {
		wall += float64(s.wall)
		scan += float64(s.scan)
		if s.miss {
			missWall += float64(s.wall)
			missBuild += float64(s.build)
		}
		byClass[s.class] = append(byClass[s.class], s)
	}
	for c, name := range classNames {
		var walls []float64
		for _, s := range byClass[c] {
			walls = append(walls, float64(s.wall))
		}
		m["exec.run_ns."+name] = median(walls)
		m["class."+name+".lat_p50_us"] = median(lats(byClass[c], nil)) / 1e3
	}
	m["exec.cachescan_share"] = ratio(scan, wall)
	m["exec.vecjoin_ratio"] = ratio(float64(vecJoins), float64(len(byClass[clsJoin])))
	m["cache.build_share"] = ratio(missBuild, missWall)
	m["lat_p99_us"] = percentile(lats(ss, nil), 0.99) / 1e3
	return m
}

// goRuntime measures the Go runtime's cost between start and stop.
type goRuntime struct{ before runtime.MemStats }

func startGoRuntime() *goRuntime {
	g := &goRuntime{}
	runtime.ReadMemStats(&g.before)
	return g
}

func (g *goRuntime) metrics(queries int) map[string]float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(queries)
	return map[string]float64{
		"go.allocs_per_query":   ratio(float64(after.Mallocs-g.before.Mallocs), n),
		"go.alloc_kb_per_query": ratio(float64(after.TotalAlloc-g.before.TotalAlloc)/1024, n),
		"go.gc_pause_ms":        float64(after.PauseTotalNs-g.before.PauseTotalNs) / 1e6,
	}
}

func merge(dst map[string]float64, srcs ...map[string]float64) map[string]float64 {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
	return dst
}

// medianMaps takes the per-key median over several rounds' metric maps.
func medianMaps(ms []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(ms) == 0 {
		return out
	}
	for k := range ms[0] {
		var vs []float64
		for _, m := range ms {
			vs = append(vs, m[k])
		}
		out[k] = median(vs)
	}
	return out
}

// traceMetrics are the per-layer metrics a tracer yields.
func traceMetrics(t *tracer, untracedQPS, tracedQPS float64) map[string]float64 {
	byLayer, unattributed := t.shares()
	m := map[string]float64{
		"trace.unattributed_share": unattributed,
		// Both halves run the same mix; the traced half also pays for
		// span recording and the stage replays.
		"trace_overhead_ratio": ratio(untracedQPS, tracedQPS),
	}
	for _, l := range traceLayers {
		m["trace.share."+l] = byLayer[l]
	}
	return m
}
