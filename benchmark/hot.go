package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/server"
	"recache/internal/wire"
)

// hotEnv is a warmed engine over generated data, optionally behind an
// in-process server on a unix socket with one connection per client.
type hotEnv struct {
	d          *dataset
	eng        *recache.Engine
	pool       []query
	srv        *server.Server
	served     chan error
	clients    []*client.Client
	firstTouch firstTouch
}

// firstTouch is each pool query's first execution on a cold engine, with
// the reference readings taken between those executions.
type firstTouch struct {
	samples []sample
	ref     []float64
}

// warmPasses is how often set-up runs the pool: the first pass admits the
// entries, the second lets the layout advisor see reuse and settle.
const warmPasses = 2

func setupHot(o options, dir string, ref *reference, overWire bool) (*hotEnv, error) {
	d, err := genData(dir, o.sf, o.seed)
	if err != nil {
		return nil, err
	}
	return warmHot(o, d, ref, overWire)
}

// warmHot opens an engine with an unbounded cache on d and warms the hot
// pool on it. Admission is eager: the hot workloads measure the hit path,
// and adaptive admission's eager-or-lazy choice on the first scan of a file
// is a coin toss on this data that would decide every first-touch latency
// of the run (explore keeps the adaptive default).
func warmHot(o options, d *dataset, ref *reference, overWire bool) (*hotEnv, error) {
	eng, err := d.open(o.engineConfig(recache.Config{Admission: "eager"}))
	if err != nil {
		return nil, err
	}
	e := &hotEnv{d: d, eng: eng, pool: hotPool(rand.New(rand.NewSource(o.seed)), o.sf)}
	if overWire {
		sock := filepath.Join(d.dir, "s.sock")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			e.close()
			return nil, err
		}
		e.srv, e.served = server.New(eng), make(chan error, 1)
		go func() { e.served <- e.srv.Serve(ln) }()
		for i := 0; i < clients(); i++ {
			cl, err := client.Dial("unix:"+sock, client.Options{})
			if err != nil {
				e.close()
				return nil, err
			}
			e.clients = append(e.clients, cl)
			if err := cl.Ping(); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	epoch, seen := time.Now(), len(ref.durs)
	for pass := 0; pass < warmPasses; pass++ {
		if pass == 1 {
			e.firstTouch.ref = ref.durs[seen:]
		}
		for i, q := range e.pool {
			before := eng.CacheStats()
			start := time.Now()
			res, err := eng.Query(q.SQL)
			lat := time.Since(start)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("warm %q: %w", q.SQL, err)
			}
			if pass == 0 {
				after := eng.CacheStats()
				hits := after.ExactHits + after.SubsumedHits - before.ExactHits - before.SubsumedHits
				e.firstTouch.samples = append(e.firstTouch.samples, sample{q: int32(i), class: uint8(q.Class),
					// First-touch latency is reported over the lineitem anchors
					// after the first: seven misses of similar cost on one mapped
					// file, so no single heavy scan (the file's first, which also
					// builds its positional map, or a nested file's) carries the mean.
					miss: after.Misses > before.Misses && hits == 0 && q.Table == tLineitem && i > 0,
					lat:  lat.Nanoseconds(), wall: res.Stats.Wall.Nanoseconds(), build: res.Stats.CacheBuild.Nanoseconds()})
			}
			ref.run(epoch)
		}
	}
	return e, nil
}

func (e *hotEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.srv != nil {
		e.srv.Shutdown()
		<-e.served
	}
	e.eng.Close()
}

// exec runs one query as client c sees it: through the engine's Go API, or
// through the client's connection and the server.
func (e *hotEnv) exec(c int, sql string) (answer, recache.QueryStats, error) {
	if e.srv == nil {
		res, err := e.eng.Query(sql)
		if err != nil {
			return answer{}, recache.QueryStats{}, err
		}
		return answer{res.Columns, res.Rows}, res.Stats, nil
	}
	res, err := e.clients[c].Query(sql)
	if err != nil {
		return answer{}, recache.QueryStats{}, err
	}
	return answer{res.Columns, res.Rows}, recache.QueryStats{Wall: res.Wall}, nil
}

const (
	// bigResult is the row count above which a result is compared in full
	// only every fullCheckEvery-th time (its row count always): comparing
	// thousands of boxed rows on every draw would be think time that the
	// closed loop turns into lost throughput.
	bigResult      = 64
	fullCheckEvery = 8
	// traceEvery-th queries of each client are replayed in a traced window;
	// after every referenceEvery-th the client runs the reference work.
	traceEvery     = 16
	referenceEvery = 32
	// windowSlices is how many equal slices a hot window is cut into: qps
	// is the median slice's, which a single stall (a GC cycle, a noisy
	// neighbour) cannot move, and each slice has its own speed factor.
	windowSlices = 10
)

// hotWindow is one window as its clients saw it.
type hotWindow struct {
	dur       time.Duration
	perClient [][]sample
	refs      []*reference
}

// runWindow drives the closed-loop clients for dur. With a tracer, every
// traceEvery-th query of each client is replayed through the layers.
func (e *hotEnv) runWindow(o options, dur time.Duration, answers []answer, tr *tracer, fails *failures) hotWindow {
	dr := newDrawer(e.pool)
	w := hotWindow{dur: dur, perClient: make([][]sample, clients()), refs: make([]*reference, clients())}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for c := range w.perClient {
		w.refs[c] = new(reference)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(o.seed*7919 + int64(c)))
			ss := make([]sample, 0, 1<<16)
			var cl *client.Client
			if e.srv != nil {
				cl = e.clients[c]
			}
			for n := 0; ; n++ {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					break
				}
				qi := dr.draw(r)
				got, st, err := e.exec(c, e.pool[qi].SQL)
				t1 := time.Now()
				ss = append(ss, sample{q: int32(qi), class: uint8(e.pool[qi].Class),
					lat: t1.Sub(t0).Nanoseconds(), wall: st.Wall.Nanoseconds(),
					scan: st.CacheScan.Nanoseconds(), end: t1.Sub(start).Nanoseconds()})
				var bad string
				switch want := answers[qi]; {
				case err != nil:
					bad = err.Error()
				case len(got.rows) != len(want.rows):
					bad = fmt.Sprintf("%d rows, oracle has %d", len(got.rows), len(want.rows))
				case (len(want.rows) <= bigResult || n%fullCheckEvery == 0) && !sameAnswer(got, want):
					bad = "answer differs from the oracle's"
				}
				if bad == "" && tr != nil && n%traceEvery == 0 {
					if err := tr.replayQuery(e.eng, cl, e.pool[qi].SQL, false, t0, t1); err != nil {
						bad = "trace replay: " + err.Error()
					}
				}
				if n%referenceEvery == 0 {
					w.refs[c].run(start)
				}
				if bad != "" {
					mu.Lock()
					fails.add("%s: %s", e.pool[qi].SQL, bad)
					mu.Unlock()
				}
			}
			w.perClient[c] = ss
		}(c)
	}
	wg.Wait()
	return w
}

func (w hotWindow) slice(at int64) int {
	return int(min(at/(w.dur.Nanoseconds()/windowSlices), windowSlices-1))
}

// factors is each slice's speed factor.
func (w hotWindow) factors(v view) [windowSlices]float64 {
	var durs [windowSlices][]float64
	for _, ref := range w.refs {
		for i, at := range ref.at {
			durs[w.slice(at)] = append(durs[w.slice(at)], ref.durs[i])
		}
	}
	var c [windowSlices]float64
	for i := range c {
		c[i] = v.factor(durs[i])
	}
	return c
}

// qps is the median slice's throughput at the speed factors c.
func (w hotWindow) qps(c [windowSlices]float64) float64 {
	counts := make([]float64, windowSlices)
	for _, ss := range w.perClient {
		for _, s := range ss {
			if s.end < w.dur.Nanoseconds() {
				counts[w.slice(s.end)]++
			}
		}
	}
	for i := range counts {
		counts[i] *= c[i] / (w.dur.Seconds() / windowSlices)
	}
	return median(counts)
}

func (w hotWindow) samples() []sample {
	var out []sample
	for _, ss := range w.perClient {
		out = append(out, ss...)
	}
	return out
}

func runHot(o options, overWire bool) (*outcome, error) {
	// Every set-up is a cold engine meeting the pool for the first time.
	var touches []firstTouch
	env, setups, err := repeatSetup(o, func(dir string, ref *reference) (*hotEnv, error) {
		env, err := setupHot(o, dir, ref, overWire)
		if err == nil {
			touches = append(touches, env.firstTouch)
		}
		return env, err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := &outcome{}
	if out.hash, err = env.d.workloadHash(sqlsOf(env.pool)); err != nil {
		return nil, err
	}

	// Oracle: the no-cache engine answers every pool query, twice. Its
	// second pass scans mapped files, the steady state a no-cache engine
	// serves this pool from, and is the baseline of speedup_vs_nocache.
	oracle, err := env.d.open(oracleConfig(""))
	if err != nil {
		return nil, err
	}
	answers := make([]answer, len(env.pool))
	nocache := make([]float64, len(env.pool))
	var nocacheRef *reference
	for pass := 0; pass < 2; pass++ {
		nocacheRef = new(reference) // the last pass's latencies and readings stay
		for i, q := range env.pool {
			start := time.Now()
			res, err := oracle.Query(q.SQL)
			nocache[i] = float64(time.Since(start).Nanoseconds())
			if err != nil {
				oracle.Close()
				return nil, fmt.Errorf("oracle %q: %w", q.SQL, err)
			}
			answers[i] = answer{res.Columns, res.Rows}
			nocacheRef.run(start)
		}
	}
	// The first-touch queries' no-cache side: a handful of 5-10 ms scans,
	// so they are repeated until the sum is not one scheduling hiccup's.
	var firstTouchRaw []float64
	firstTouchRawRef := new(reference)
	for pass := 0; pass < 5; pass++ {
		for _, s := range env.firstTouch.samples {
			if !s.miss {
				continue
			}
			start := time.Now()
			if _, err := oracle.Query(env.pool[s.q].SQL); err != nil {
				oracle.Close()
				return nil, fmt.Errorf("oracle %q: %w", env.pool[s.q].SQL, err)
			}
			firstTouchRaw = append(firstTouchRaw, float64(time.Since(start).Nanoseconds()))
			firstTouchRawRef.run(start)
		}
	}
	oracle.Close()

	if o.trace {
		return out, env.traced(o, answers, out)
	}

	runtime.GC()
	before := readCounters(env.eng, env.d)
	cpu0 := cpuSeconds()
	w := env.runWindow(o, o.window(), answers, nil, &out.fails)
	cpu := cpuSeconds() - cpu0
	after := readCounters(env.eng, env.d)
	out.attempted = len(w.samples())
	env.assertAllHits(before, after, &out.fails)

	endToEnd := func(v view) map[string]float64 {
		c := w.factors(v)
		var all []float64
		perQuery := make([][]float64, len(env.pool))
		for _, s := range w.samples() {
			lat := float64(s.lat) / c[w.slice(s.end)]
			all = append(all, lat)
			perQuery[s.q] = append(perQuery[s.q], lat)
		}
		var cachedSum, nocacheSum float64
		for q, ls := range perQuery {
			if len(ls) > 0 {
				cachedSum += median(ls)
				nocacheSum += nocache[q] / v.factor(nocacheRef.durs)
			}
		}
		// First touch: every set-up's cold engine, against the no-cache
		// engine on the same (mapped) file and queries.
		var firstTouch, n float64
		for _, t := range touches {
			for _, s := range t.samples {
				if s.miss {
					firstTouch += float64(s.lat) / v.factor(t.ref)
					n++
				}
			}
		}
		rawMean := ratio(sum(firstTouchRaw), float64(len(firstTouchRaw))) / v.factor(firstTouchRawRef.durs)
		return map[string]float64{
			"setup_s":             setups.seconds(v),
			"qps":                 w.qps(c),
			"hit_lat_p50_us":      percentile(all, 0.5) / 1e3, // every query in the window is a hit
			"hit_lat_p95_us":      percentile(all, 0.95) / 1e3,
			"miss_lat_mean_ms":    ratio(firstTouch, n) / 1e6,
			"speedup_vs_nocache":  ratio(nocacheSum, cachedSum),
			"miss_overhead_ratio": ratio(ratio(firstTouch, n), rawMean),
			"cpu_us_per_query":    ratio(cpu*1e6, float64(len(all))) / median(c[:]),
			"rss_peak_mb":         rssPeakMB(),
		}
	}
	out.metrics, out.raw = endToEnd(reported), endToEnd(raw)
	return out, nil
}

// assertAllHits checks the hot workloads' defining property: inside the
// window nothing misses and no raw file is scanned, so the tokenizers are
// bypassed.
func (e *hotEnv) assertAllHits(before, after engineCounters, fails *failures) {
	if n := after.cs.Misses - before.cs.Misses; n != 0 {
		fails.add("hot window: %d cache misses, want 0", n)
	}
	if n := after.totalRawScans() - before.totalRawScans(); n != 0 {
		fails.add("hot window: %d raw scans, want 0", n)
	}
}

func (e *hotEnv) serverStats() wire.ServerStats {
	if e.srv == nil {
		return wire.ServerStats{}
	}
	return e.srv.Stats()
}

// traced is the traced run: half the window untraced (counters, class
// latencies, allocation rates), half with sampled stage replays, then the
// layer probes.
func (e *hotEnv) traced(o options, answers []answer, out *outcome) error {
	records, err := e.d.recordCounts()
	if err != nil {
		return err
	}
	half := o.window() / 2
	before, srv0 := readCounters(e.eng, e.d), e.serverStats()
	rt := startGoRuntime()
	untraced := e.runWindow(o, half, answers, nil, &out.fails)
	ss := untraced.samples()
	rtm := rt.metrics(len(ss))
	after, srv1 := readCounters(e.eng, e.d), e.serverStats()
	e.assertAllHits(before, after, &out.fails)

	tr := newTracer(e.d, e.srv != nil)
	traced := e.runWindow(o, half, answers, tr, &out.fails)
	out.attempted = len(ss) + len(traced.samples())
	if out.tracePath, err = tr.write(o.out, o.workload, o.seed); err != nil {
		return err
	}

	probes, err := runProbes(o, e.d, e.eng, e.pool)
	if err != nil {
		return err
	}
	asRead, c := untraced.factors(raw), untraced.factors(reported)
	out.metrics = merge(probes,
		counterMetrics(e.d, before, after, records),
		sampleMetrics(ss, after.cs.VectorizedJoins-before.cs.VectorizedJoins),
		rtm,
		traceMetrics(tr, untraced.qps(asRead), traced.qps(asRead)),
		map[string]float64{
			"server.requests":      float64(srv1.Requests - srv0.Requests),
			"server.errors":        float64(srv1.Errors - srv0.Errors),
			"machine.speed_factor": median(c[:]),
		})
	return nil
}
