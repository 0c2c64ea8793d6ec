// Command recached is the recache daemon: it opens one engine, registers
// tables from the command line, and serves the wire protocol to many
// concurrent clients over a unix socket and/or TCP until SIGTERM/SIGINT,
// then drains gracefully — in-flight queries finish, connections close,
// pending disk-tier spills flush — and exits 0 only if the drain left no
// cache transaction open.
//
// Usage:
//
//	recached -unix /tmp/recached.sock \
//	         -csv 'lineitem=path.csv:l_orderkey int, l_quantity int' \
//	         [-tcp 127.0.0.1:7878] [-stats 127.0.0.1:7879] \
//	         [-capacity N -spill-dir DIR -disk-capacity N ...] \
//	         [-fleet unix:/tmp/s0.sock,unix:/tmp/s1.sock -shard-id 0]
//
// With -fleet/-shard-id the daemon serves as one shard of a rendezvous-
// hashed fleet: it answers the fleet-topology wire op (so clients can
// discover the other shards from any member) and coordinates cache builds
// with its peers through short-TTL materialization leases. Launch one
// daemon per address in the list, each with its own -shard-id.
//
// The -stats address serves GET /stats: the same JSON document the wire
// protocol's stats op returns (cache counters + serving counters), for
// scraping without a protocol client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/server"
	"recache/internal/shard"
	"recache/internal/wire"
)

type tableFlag struct {
	specs *[]string
}

func (t tableFlag) String() string { return "" }
func (t tableFlag) Set(s string) error {
	*t.specs = append(*t.specs, s)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the SIGTERM drain path is
// testable in-process. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recached", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var csvSpecs, jsonSpecs []string
	var (
		unixPath  = fs.String("unix", "", "serve on this unix socket path")
		tcpAddr   = fs.String("tcp", "", "serve on this TCP address (host:port)")
		statsAddr = fs.String("stats", "", "serve GET /stats (JSON counters) on this HTTP address")
		eviction  = fs.String("eviction", "recache", "eviction policy")
		admission = fs.String("admission", "adaptive", "admission mode: adaptive|eager|lazy|off")
		layout    = fs.String("layout", "auto", "cache layout: auto|parquet|columnar")
		capacity  = fs.Int64("capacity", 0, "cache capacity in bytes (0 = unlimited)")
		spillDir  = fs.String("spill-dir", "", "spill directory for the disk cache tier (empty = spilling off)")
		diskCap   = fs.Int64("disk-capacity", 0, "disk tier capacity in bytes (0 = unlimited; needs -spill-dir)")
		fleetSpec = fs.String("fleet", "", "comma-separated shard addresses for the whole fleet (needs -shard-id)")
		shardID   = fs.Int("shard-id", -1, "this daemon's position in -fleet")
		drain     = fs.Bool("drain", false, "on SIGTERM, hand the working set to the surviving shards before exiting (fleet mode)")
		freshness = fs.String("freshness", "off", "raw-file freshness mode: off|check-on-access (stat each queried file; a hit extends its entry over an appended tail)")
	)
	fs.Var(tableFlag{&csvSpecs}, "csv", "register CSV table: name=path[:schema] (repeatable)")
	fs.Var(tableFlag{&jsonSpecs}, "json", "register JSON table: name=path:schema (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *unixPath == "" && *tcpAddr == "" {
		fmt.Fprintln(stderr, "recached: need -unix and/or -tcp to listen on")
		return 2
	}

	if (*fleetSpec == "") != (*shardID < 0) {
		fmt.Fprintln(stderr, "recached: -fleet and -shard-id go together")
		return 2
	}
	if *drain && *fleetSpec == "" {
		fmt.Fprintln(stderr, "recached: -drain needs -fleet")
		return 2
	}
	cfg := recache.Config{
		Eviction:       *eviction,
		Admission:      *admission,
		Layout:         *layout,
		CacheCapacity:  *capacity,
		SpillDir:       *spillDir,
		DiskCacheBytes: *diskCap,
		FreshnessMode:  *freshness,
	}

	// Fleet mode: the daemon knows the full topology and its own position
	// and runs as a server.Member — its engine takes materialization leases
	// from each key's rendezvous owner before building (fleet-wide
	// single-flight) and, with a spill dir, pushes each eager admission to
	// the key's replica shard. Otherwise it is a solo server on a plain
	// engine.
	var (
		fleetMap *shard.Map
		eng      *recache.Engine
		srv      *server.Server
		stop     func() error // closes what Shutdown leaves open
	)
	if *fleetSpec != "" {
		m, err := shard.ParseFleet(*fleetSpec)
		if err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 2
		}
		if *shardID >= m.Len() {
			fmt.Fprintf(stderr, "recached: -shard-id %d out of range for a %d-shard fleet\n", *shardID, m.Len())
			return 2
		}
		member, err := server.NewMember(*shardID, m, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 1
		}
		fleetMap, eng, srv, stop = m, member.Engine(), member.Server, member.Close
	} else {
		var err error
		if eng, err = recache.Open(cfg); err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 1
		}
		srv, stop = server.New(eng), eng.Close
	}
	defer stop() // the error returns below; the drain path has already run it
	for _, spec := range csvSpecs {
		name, path, schema, err := splitSpec(spec)
		if err == nil {
			err = eng.RegisterCSV(name, path, schema, '|')
		}
		if err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 1
		}
	}
	for _, spec := range jsonSpecs {
		name, path, schema, err := splitSpec(spec)
		if err == nil {
			err = eng.RegisterJSON(name, path, schema)
		}
		if err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 1
		}
	}

	serveErr := make(chan error, 2)
	var listeners []string
	if *unixPath != "" {
		// A previous run that died without cleanup leaves a stale socket
		// file; listening requires removing it first.
		os.Remove(*unixPath)
		ln, err := net.Listen("unix", *unixPath)
		if err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 1
		}
		defer os.Remove(*unixPath)
		listeners = append(listeners, "unix:"+*unixPath)
		go func() { serveErr <- srv.Serve(ln) }()
	}
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 1
		}
		listeners = append(listeners, "tcp:"+ln.Addr().String())
		go func() { serveErr <- srv.Serve(ln) }()
	}
	var statsSrv *http.Server
	if *statsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(wire.Stats{
				Cache:  eng.Manager().Stats(),
				Server: srv.Stats(),
			})
		})
		ln, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "recached:", err)
			return 1
		}
		statsSrv = &http.Server{Handler: mux}
		go statsSrv.Serve(ln)
		listeners = append(listeners, "http:"+ln.Addr().String())
	}
	fmt.Fprintf(stdout, "recached: serving on %s\n", strings.Join(listeners, ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "recached: %v, draining\n", s)
		if *drain && fleetMap != nil {
			// Graceful removal: announce departure (peers shrink their
			// maps, routers observing the change refresh), then stream the
			// working set to the shards that own each key once this one is
			// gone. Best-effort — an unreachable peer costs its handoffs,
			// never the shutdown.
			drainFleet(stdout, eng, fleetMap, *shardID)
		}
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(stderr, "recached: accept:", err)
		}
	}

	// Graceful drain: wire first (in-flight requests complete, responses
	// flush, connections close), then the engine (waits for any stragglers,
	// flushes pending spills) — with a member's flight stopped in between.
	srv.Shutdown()
	if statsSrv != nil {
		statsSrv.Close()
	}
	stop()
	if open := eng.CacheStats().OpenTxns; open != 0 {
		fmt.Fprintf(stderr, "recached: drain left %d transactions open\n", open)
		return 1
	}
	fmt.Fprintln(stdout, "recached: drained, bye")
	return 0
}

// drainFleet is the graceful-removal protocol: broadcast OpLeave to every
// peer (so the fleet stops routing to this shard), then export the local
// working set and push each entry to its new rendezvous owner in the
// shrunken map. Every step is best-effort; the daemon still exits cleanly
// if a peer is down.
func drainFleet(stdout io.Writer, eng *recache.Engine, m *shard.Map, self int) {
	rest, err := m.Remove(self)
	if err != nil {
		return // last shard standing: nowhere to hand off
	}
	opts := client.Options{DialTimeout: 2 * time.Second, RequestTimeout: 5 * time.Second}
	peers := make(map[int]*client.Client)
	dial := func(s shard.Info) *client.Client {
		if cl, ok := peers[s.ID]; ok {
			return cl
		}
		cl, err := client.Dial(s.Addr, opts)
		if err != nil {
			cl = nil
		}
		peers[s.ID] = cl
		return cl
	}
	for _, s := range rest.Shards() {
		if cl := dial(s); cl != nil {
			cl.Leave(self)
		}
	}
	var shipped, dropped int
	eng.ExportEntries(func(table, canon string, payload []byte) error {
		owner := rest.Owner(shard.Key(table, canon))
		if cl := dial(owner); cl != nil && cl.Replicate(table, canon, payload) == nil {
			shipped++
		} else {
			dropped++
		}
		return nil
	})
	for _, cl := range peers {
		if cl != nil {
			cl.Close()
		}
	}
	fmt.Fprintf(stdout, "recached: drain handed off %d entries (%d dropped)\n", shipped, dropped)
}

func splitSpec(spec string) (name, path, schema string, err error) {
	eq := strings.IndexByte(spec, '=')
	if eq < 0 {
		return "", "", "", fmt.Errorf("bad table spec %q (want name=path[:schema])", spec)
	}
	name = spec[:eq]
	rest := spec[eq+1:]
	if colon := strings.IndexByte(rest, ':'); colon >= 0 {
		return name, rest[:colon], rest[colon+1:], nil
	}
	return name, rest, "", nil
}
