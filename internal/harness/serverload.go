package harness

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"recache"
	"recache/internal/cache"
	"recache/internal/client"
	"recache/internal/datagen"
	"recache/internal/server"
)

// serverLoad is the wire-protocol phase of the perf-trajectory report: the
// same cache-hit workload the parallel harness replays embedded is driven
// through a recached server over a unix socket by swarms of concurrent
// clients (64, 256, 1024 connections, one pipelined request stream each),
// reporting aggregate queries/sec and p99 request latency per swarm size.
// The wire path must keep at least half the embedded hit throughput —
// framing, demuxing, and the per-request goroutine are the only additions —
// and a 16-client cold burst over the wire must still collapse into shared
// raw scans exactly like embedded bursts do. The bench gate (cmd/benchdiff)
// tracks the qps values, the p99s, the server/embedded qps ratio, and the
// burst parse counts across PRs.
func (r *Runner) serverLoad(paths *datagen.TPCHPaths) error {
	// The phase models a tuned daemon: relax GC the way a serving process
	// would. Embedded reference and wire swarms both run under it, so the
	// ratio stays apples-to-apples.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	eng := newEngine(cache.Config{Admission: cache.AlwaysEager})
	if err := registerTPCH(eng, paths, false); err != nil {
		return err
	}
	// The same fixed pool of overlapping range selections as Parallel:
	// after one warm pass every replay is an exact cache hit.
	var queries []string
	for i := 0; i < 16; i++ {
		lo := 1 + (i*3)%40
		hi := lo + 8
		queries = append(queries,
			fmt.Sprintf("SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity BETWEEN %d AND %d", lo, hi))
	}
	for _, q := range queries {
		if _, err := eng.Query(q); err != nil {
			return err
		}
	}
	// Both sides of the server/embedded ratio are medians over repeated
	// runs, with the embedded reference re-sampled between swarm sizes:
	// on a shared box either single measurement can swing ±20%, and a
	// ratio of two one-shot readings taken at different moments gates on
	// the noise, not the wire path. Interleaving samples both sides
	// across the same noise epochs. The embedded replay is also sized to
	// the wire swarms' query volume — a short burst can slip between GC
	// cycles that a sustained run amortizes, which would overstate the
	// embedded rate.
	total := r.nq(2000)
	embTotal := total
	if wireTotal := 256 * pipeDepth * 8; embTotal < wireTotal {
		embTotal = wireTotal
	}
	runs := 1
	if total >= 1000 {
		runs = 3
	}
	var embS []float64
	sampleEmbedded := func() error {
		q, err := replayParallel(eng, queries, embTotal, 16)
		if err != nil {
			return err
		}
		embS = append(embS, q)
		return nil
	}

	addr, stop, err := r.serveUnix(eng, "recached-bench.sock")
	if err != nil {
		return err
	}
	defer stop()

	concs := feasibleConcurrencies([]int{64, 256, 1024}, total, r.printf)
	r.printf("\nserver load: %d cache-hit queries over a unix socket per client-swarm size (median of %d runs)\n", total, runs)
	r.printf("%12s %14s %12s %14s\n", "clients", "queries/sec", "p99 ms", "vs embedded")
	var ratio256 float64
	for _, conc := range concs {
		if err := sampleEmbedded(); err != nil {
			return err
		}
		qpsS := make([]float64, 0, runs)
		p99S := make([]float64, 0, runs)
		for i := 0; i < runs; i++ {
			// No request timeout: a per-request timer is pure overhead at
			// this rate, and a wedged daemon already fails the run's outer
			// timeout.
			qps, p99, err := wireReplay(func() (*client.Client, error) {
				return client.Dial(addr, client.Options{})
			}, queries, total, conc)
			if err != nil {
				return err
			}
			qpsS = append(qpsS, qps)
			p99S = append(p99S, p99)
		}
		qps, p99 := median(qpsS), median(p99S)
		embeddedQPS := median(embS)
		r.printf("%12d %14.0f %12.2f %13.2fx\n", conc, qps, p99, qps/embeddedQPS)
		if conc == 256 {
			ratio256 = qps / embeddedQPS
		}
		r.addPhase(Phase{
			Name:       "server-load",
			Goroutines: conc,
			QPS:        qps,
			P99Millis:  p99,
		})
	}
	if err := sampleEmbedded(); err != nil {
		return err
	}
	// The 256-client ratio is re-derived against the full embedded sample
	// set so the hard gate sees every epoch.
	if ratio256 > 0 {
		for _, p := range r.report.Phases {
			if p.Name == "server-load" && p.Goroutines == 256 {
				ratio256 = p.QPS / median(embS)
			}
		}
	}
	r.printf("embedded reference: %.0f queries/sec (median of %d)\n", median(embS), len(embS))
	if ratio256 > 0 && ratio256 < 0.5 {
		return fmt.Errorf("harness: 256-client server load reached only %.2fx the embedded hit throughput, want >= 0.5x", ratio256)
	}
	return nil
}

// serverColdShared drives the cold-burst work-sharing probe through the
// wire: 16 clients fire one identical cold query each at a fresh daemon,
// twice on disjoint predicates, and the raw-parse counts come back through
// the table-stats op — the client-observable proof that concurrent misses
// over the wire still collapse into shared raw scans.
func (r *Runner) serverColdShared(paths *datagen.TPCHPaths) error {
	const w = 16
	eng := newEngine(cache.Config{Admission: cache.AlwaysEager})
	if err := registerTPCH(eng, paths, false); err != nil {
		return err
	}
	addr, stop, err := r.serveUnix(eng, "recached-cold.sock")
	if err != nil {
		return err
	}
	defer stop()

	cls := make([]*client.Client, w)
	for i := range cls {
		cl, err := client.Dial(addr, client.Options{RequestTimeout: 5 * time.Minute})
		if err != nil {
			return err
		}
		defer cl.Close()
		cls[i] = cl
	}
	b1, err := wireBurst(cls, "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 5")
	if err != nil {
		return err
	}
	b2, err := wireBurst(cls, "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 10 AND 14")
	if err != nil {
		return err
	}
	ws, err := cls[0].Stats()
	if err != nil {
		return err
	}
	r.printf("\nserver cold burst: raw lineitem parses per burst of %d concurrent identical cold queries over the wire\n", w)
	r.printf("burst1 %d parses, burst2 %d parses; %d shared cycles served %d consumers\n",
		b1, b2, ws.Cache.SharedScans, ws.Cache.SharedConsumers)
	if b2 > 2 {
		return fmt.Errorf("harness: second wire cold burst cost %d raw parses, want <= 2 (work sharing broken over the wire)", b2)
	}
	r.addPhase(Phase{
		Name:         "server-cold-shared",
		Goroutines:   w,
		Burst1Parses: b1,
		Burst2Parses: b2,
		CacheStats:   &ws.Cache,
	})
	return nil
}

// serveUnix serves eng as a solo daemon on a fresh unix socket under the
// runner's directory and returns its address; stop drains the server and
// removes the socket (the engine stays the caller's).
func (r *Runner) serveUnix(eng *recache.Engine, name string) (addr string, stop func(), err error) {
	sock := filepath.Join(r.opts.Dir, name)
	os.Remove(sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return "", nil, err
	}
	srv := server.New(eng)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return "unix:" + sock, func() {
		srv.Shutdown()
		<-served
		os.Remove(sock)
	}, nil
}

// median returns the middle value (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// feasibleConcurrencies raises the process fd limit as far as the hard cap
// allows and trims swarm sizes the budget cannot hold (each client costs
// two fds: its socket and the server's accepted side, both in this
// process) or the workload cannot keep busy (a swarm larger than the query
// count would measure connection setup, not serving).
func feasibleConcurrencies(concs []int, total int, logf func(string, ...any)) []int {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return concs
	}
	want := uint64(65536)
	if want > lim.Max {
		want = lim.Max
	}
	if lim.Cur < want {
		lim.Cur = want
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim) // best effort
		syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim)
	}
	const overhead = 64 // stdio, data files, listeners, spill dirs
	out := concs[:0]
	for _, c := range concs {
		switch {
		case uint64(2*c+overhead) > lim.Cur:
			logf("server load: skipping %d clients (fd limit %d)\n", c, lim.Cur)
		case c > total:
			logf("server load: skipping %d clients (workload is only %d queries)\n", c, total)
		default:
			out = append(out, c)
		}
	}
	return out
}
