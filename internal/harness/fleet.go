package harness

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/datagen"
	"recache/internal/server"
	"recache/internal/shard"
	"recache/internal/wire"
)

// fleet is an in-process shard fleet: one server.Member per shard on its
// own unix socket — the object `recached -fleet ... -shard-id N` runs.
type fleet struct {
	m       *shard.Map
	addrs   []string
	members []*server.Member
	served  []chan error
	paths   []string // sockets and spill dirs, removed by Close
}

// startFleet launches n members under the runner's directory, each on an
// engine opened with cfg and with lineitem registered. A non-empty
// cfg.SpillDir is a prefix: shard i spills to SpillDir+i.
func (r *Runner) startFleet(n int, cfg recache.Config) (*fleet, error) {
	paths, err := r.ensureTPCH()
	if err != nil {
		return nil, err
	}
	infos := make([]shard.Info, n)
	for i := range infos {
		infos[i] = shard.Info{ID: i, Addr: "unix:" + filepath.Join(r.opts.Dir, fmt.Sprintf("fleet-shard%d.sock", i))}
	}
	m, err := shard.NewMap(infos)
	if err != nil {
		return nil, err
	}
	f := &fleet{m: m}
	for i, s := range infos {
		sock := s.Addr[len("unix:"):]
		f.addrs = append(f.addrs, s.Addr)
		f.paths = append(f.paths, sock)
		mcfg := cfg
		if cfg.SpillDir != "" {
			mcfg.SpillDir = fmt.Sprintf("%s%d", cfg.SpillDir, i)
			f.paths = append(f.paths, mcfg.SpillDir)
		}
		mb, err := server.NewMember(i, m, mcfg)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.members = append(f.members, mb)
		if err := mb.Engine().RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
			f.Close()
			return nil, err
		}
		os.Remove(sock)
		ln, err := net.Listen("unix", sock)
		if err != nil {
			f.Close()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- mb.Serve(ln) }()
		f.served = append(f.served, served)
	}
	return f, nil
}

// Close closes every member and removes the sockets and spill dirs.
func (f *fleet) Close() {
	for i, mb := range f.members {
		mb.Close()
		if i < len(f.served) {
			<-f.served[i]
		}
	}
	for _, p := range f.paths {
		os.RemoveAll(p)
	}
}

// wireClient is what the replay and cold-burst drivers need of a wire
// endpoint: a client.Client (one daemon) or a client.Router (a fleet).
type wireClient interface {
	Exec(sql string) (rows int64, wall time.Duration, err error)
	Query(sql string) (*client.Result, error)
	TableStats(name string) (*wire.TableStats, error)
	Close() error
}

// pipeDepth is how many requests each connection keeps in flight during
// the replay: the protocol is pipelined (responses match requests by id),
// so a sustained client streams requests without waiting for each
// response, and the flush coalescing on both sides batches frames into
// shared syscalls. One request at a time per connection would measure
// round-trip wakeup latency, not serving throughput.
const pipeDepth = 6

// wireReplay replays total queries round-robin from the pool across conc
// endpoints from dial (pipeDepth requests in flight per endpoint, released
// by a start barrier) and returns the aggregate queries/sec and the p99
// per-request latency in milliseconds — through a router, with the
// rendezvous hop included in every latency sample.
func wireReplay[C wireClient](dial func() (C, error), queries []string, total, conc int) (qps, p99ms float64, err error) {
	cls := make([]C, 0, conc)
	defer func() {
		for _, cl := range cls {
			cl.Close()
		}
	}()
	for len(cls) < conc {
		cl, err := dial()
		if err != nil {
			return 0, 0, err
		}
		cls = append(cls, cl)
	}

	lanes := conc * pipeDepth
	perLane := total / lanes
	// Sustained load needs every lane in steady state: a lane that fires
	// one query and exits measures the connection storm, not serving.
	if perLane < 16 {
		perLane = 16
	}
	lats := make([][]time.Duration, lanes)
	errs := make([]error, lanes)
	start := make(chan struct{})
	var wg, warmWG sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		warmWG.Add(1)
		go func(l int) {
			defer wg.Done()
			cl := cls[l/pipeDepth]
			// One untimed warm query per lane: connection ramp-up, handler
			// stack growth, and cold branch state are setup, not serving.
			_, _, werr := cl.Exec(queries[l%len(queries)])
			warmWG.Done()
			if werr != nil {
				errs[l] = werr
				return
			}
			<-start
			own := make([]time.Duration, 0, perLane)
			for j := 0; j < perLane; j++ {
				q := queries[(l+j)%len(queries)]
				t0 := time.Now()
				// Exec: the load phases measure the daemon, so the lanes
				// skip client-side row materialization (the batch still
				// crosses the wire). The cold-burst phases use full Query.
				if _, _, err := cl.Exec(q); err != nil {
					errs[l] = err
					return
				}
				own = append(own, time.Since(t0))
			}
			lats[l] = own
		}(l)
	}
	warmWG.Wait()
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	idx := len(all) * 99 / 100
	if idx >= len(all) {
		idx = len(all) - 1
	}
	return float64(len(all)) / elapsed.Seconds(), float64(all[idx].Microseconds()) / 1000, nil
}

// wireBurst fires q once from every endpoint at the same instant and
// returns how many raw lineitem parses the burst cost, read back through
// the table-stats op — the client-observable proof that concurrent cold
// misses over the wire collapse into shared raw scans.
func wireBurst[C wireClient](cls []C, q string) (int64, error) {
	before, err := cls[0].TableStats("lineitem")
	if err != nil {
		return 0, err
	}
	start := make(chan struct{})
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl C) {
			defer wg.Done()
			<-start
			_, errs[i] = cl.Query(q)
		}(i, cl)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	after, err := cls[0].TableStats("lineitem")
	if err != nil {
		return 0, err
	}
	return after.RawScans - before.RawScans, nil
}
