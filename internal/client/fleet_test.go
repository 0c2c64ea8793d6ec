package client_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/server"
	"recache/internal/shard"
)

const fleetSchema = "id int, qty int, price float, name string"

func fleetCSV(t *testing.T, rows int) string {
	t.Helper()
	var b []byte
	for i := 1; i <= rows; i++ {
		b = fmt.Appendf(b, "%d|%d|%d.5|name%d\n", i, (i%5+1)*10, i, i)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testFleet is an in-process shard fleet: one server.Member per shard — the
// object `recached -fleet ... -shard-id N` runs.
type testFleet struct {
	dir     string // holds the sockets (s<i>.sock) and spill dirs (spill<i>)
	m       *shard.Map
	addrs   []string
	engines []*recache.Engine
	members []*server.Member
	// start (re)launches shard i on its socket; a test that closed a member
	// calls it to bring the shard back as a fresh process would.
	start func(i int)
}

// startFleet launches n shards on unix sockets, each serving its own engine
// with table t registered.
func startFleet(t *testing.T, n int, csvPath string) *testFleet {
	return startFleetWith(t, n, csvPath, fleetOpts{})
}

// fleetOpts varies the fleet startFleetWith launches: replicated gives
// every shard a spill dir, so eager admissions replicate to the key's next
// rendezvous shard (`recached -fleet -spill-dir`); capacity bounds each
// shard's cache (0 = unlimited); wrap (nil = none) wraps each shard's
// listener.
type fleetOpts struct {
	replicated bool
	capacity   int64
	wrap       func(net.Listener) net.Listener
}

func startFleetWith(t *testing.T, n int, csvPath string, o fleetOpts) *testFleet {
	t.Helper()
	dir := t.TempDir()
	infos := make([]shard.Info, n)
	for i := range infos {
		infos[i] = shard.Info{ID: i, Addr: "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))}
	}
	m, err := shard.NewMap(infos)
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{dir: dir, m: m, engines: make([]*recache.Engine, n), members: make([]*server.Member, n)}
	f.start = func(i int) {
		t.Helper()
		cfg := recache.Config{Admission: "eager", Layout: "columnar", CacheCapacity: o.capacity}
		if o.replicated {
			cfg.SpillDir = filepath.Join(dir, fmt.Sprintf("spill%d", i))
		}
		mb, err := server.NewMember(i, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := mb.Engine().RegisterCSV("t", csvPath, fleetSchema, '|'); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("unix", strings.TrimPrefix(infos[i].Addr, "unix:"))
		if err != nil {
			t.Fatal(err)
		}
		if o.wrap != nil {
			ln = o.wrap(ln)
		}
		served := make(chan error, 1)
		go func() { served <- mb.Serve(ln) }()
		t.Cleanup(func() {
			mb.Close()
			if err := <-served; err != nil {
				t.Errorf("shard %d: Serve: %v", i, err)
			}
		})
		f.engines[i], f.members[i] = mb.Engine(), mb
	}
	for i, s := range infos {
		f.addrs = append(f.addrs, s.Addr)
		f.start(i)
	}
	return f
}

func dialRouter(t *testing.T, addrs []string) *client.Router {
	t.Helper()
	r, err := client.DialRouter(addrs, client.RouterOptions{Options: client.Options{RequestTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// probe is one disjoint ten-row id-range count over t and its owning shard.
type probe struct {
	sql   string
	shard int
}

func rangeProbes(r *client.Router, n int) []probe {
	probes := make([]probe, n)
	for i := range probes {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", i*10+1, i*10+10)
		probes[i] = probe{sql, r.ShardFor(sql)}
	}
	return probes
}

// queryCount runs a COUNT(*) query through the router and returns an error
// unless it answers want.
func queryCount(r *client.Router, sql string, want int64) error {
	res, err := r.Query(sql)
	if err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	if got := res.Rows[0][0].(int64); got != want {
		return fmt.Errorf("%s: count %d, want %d", sql, got, want)
	}
	return nil
}

// Queries through the router must match an embedded engine, and each must
// execute on exactly the shard ShardFor names — the one whose cache will
// hold its entry.
func TestRouterRoutesToOwner(t *testing.T) {
	csvPath := fleetCSV(t, 200)
	f := startFleet(t, 3, csvPath)
	r := dialRouter(t, f.addrs)

	ref, err := recache.Open(recache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.RegisterCSV("t", csvPath, fleetSchema, '|'); err != nil {
		t.Fatal(err)
	}

	owned := make(map[int]int)
	for i := 0; i < 20; i++ {
		lo := i*10 + 1
		sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", lo, lo+9)
		sid := r.ShardFor(sql)
		if sid < 0 || sid >= 3 {
			t.Fatalf("ShardFor(%q) = %d", sql, sid)
		}
		before := make([]int64, 3)
		for s, eng := range f.engines {
			before[s] = eng.CacheStats().Queries
		}
		want, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: rows %v, want %v", sql, got.Rows, want.Rows)
		}
		for s, eng := range f.engines {
			delta := eng.CacheStats().Queries - before[s]
			if s == sid && delta != 1 {
				t.Fatalf("%s: owner shard %d saw %d queries, want 1", sql, s, delta)
			}
			if s != sid && delta != 0 {
				t.Fatalf("%s: non-owner shard %d saw %d queries (request bleed)", sql, s, delta)
			}
		}
		owned[sid]++
	}
	// Rendezvous hashing should spread 20 keys over 3 shards; a shard with
	// zero keys means the hash mix is broken.
	for s := 0; s < 3; s++ {
		if owned[s] == 0 {
			t.Fatalf("shard %d owns no keys out of 20: %v", s, owned)
		}
	}

	// Registration broadcasts: after registering through the router, the
	// table must be queryable no matter which shard a predicate hashes to.
	if err := r.RegisterCSV("u", csvPath, fleetSchema, '|'); err != nil {
		t.Fatalf("broadcast register: %v", err)
	}
	for i := 0; i < 6; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM u WHERE qty = %d", (i%5+1)*10)
		if _, err := r.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	tables, err := r.Tables()
	if err != nil || !reflect.DeepEqual(tables, []string{"t", "u"}) {
		t.Fatalf("tables: %v, %v", tables, err)
	}
	if stats, err := r.StatsAll(); err != nil || len(stats) != 3 {
		t.Fatalf("stats-all: %d shards, %v", len(stats), err)
	}
	ts, err := r.TableStats("t")
	if err != nil || ts.RawScans < 3 {
		t.Fatalf("summed table stats: %+v, %v", ts, err)
	}
}

// The fleet wire op: any member reports the full topology, DialFleet
// discovers the fleet from one seed, and a daemon outside any fleet
// refuses the op.
func TestFleetDiscovery(t *testing.T) {
	f := startFleet(t, 3, fleetCSV(t, 50))

	topo, err := dial(t, f.addrs[1]).Fleet()
	if err != nil {
		t.Fatalf("fleet op: %v", err)
	}
	if topo.Self != 1 || len(topo.Shards) != 3 {
		t.Fatalf("topology: self=%d shards=%d", topo.Self, len(topo.Shards))
	}
	for i, s := range topo.Shards {
		if int(s.ID) != i || s.Addr != f.addrs[i] {
			t.Fatalf("shard %d: %+v, want id=%d addr=%s", i, s, i, f.addrs[i])
		}
	}

	r, err := client.DialFleet(f.addrs[2], client.RouterOptions{})
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer r.Close()
	if r.Shards() != 3 {
		t.Fatalf("discovered %d shards, want 3", r.Shards())
	}
	if err := r.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query("SELECT COUNT(*) FROM t WHERE qty = 20"); err != nil {
		t.Fatal(err)
	}

	// A daemon launched without -fleet must refuse the op (and so refuse
	// discovery) rather than claim to be a one-shard fleet.
	solo, err := recache.Open(recache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	sock := filepath.Join(t.TempDir(), "solo.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	soloSrv := server.New(solo)
	go soloSrv.Serve(ln)
	defer soloSrv.Shutdown()
	if _, err := dial(t, "unix:"+sock).Fleet(); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("fleet op on solo daemon: %v, want not-part-of-a-fleet error", err)
	}
	if _, err := client.DialFleet("unix:"+sock, client.RouterOptions{}); err == nil {
		t.Fatal("DialFleet against a solo daemon succeeded")
	}
}

// Connection churn: routers dialing and closing concurrently while
// querying must neither race nor leak wedged requests.
func TestRouterConnectionChurn(t *testing.T) {
	f := startFleet(t, 2, fleetCSV(t, 100))
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				r, err := client.DialRouter(f.addrs, client.RouterOptions{Options: client.Options{RequestTimeout: 5 * time.Second}})
				if err != nil {
					errCh <- err
					return
				}
				for j := 0; j < 3; j++ {
					sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", (w*5+j)%90+1, (w*5+j)%90+10)
					if _, err := r.Query(sql); err != nil {
						errCh <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
						r.Close()
						return
					}
				}
				r.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// leasePair splits a 2-shard fleet around sql's route key: a client to the
// key's owner (where a test plants a foreign lease) and one to the other
// shard, the victim whose miss must ask the owner before building.
func leasePair(t *testing.T, f *testFleet, sql string) (key string, victim int, ocl, vcl *client.Client) {
	key = shard.RouteKey(sql)
	owner := f.m.Owner(key).ID
	return key, 1 - owner, dial(t, f.addrs[owner]), dial(t, f.addrs[1-owner])
}

// Remote single-flight: while another process holds a key's build lease, a
// shard that misses on that key executes raw WITHOUT admitting the entry.
// Once the holder releases, the very next miss builds; a holder that dies
// without releasing must not wedge the key either — the lease expires on
// the owner and a later miss proceeds.
func TestForeignLeaseBlocksBuild(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ttl     time.Duration
		release bool
	}{
		{"until released", shard.MaxTTL, true},
		{"until expired", 50 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startFleet(t, 2, fleetCSV(t, 100))
			sql := "SELECT COUNT(*) FROM t WHERE qty = 30"
			key, victim, ocl, vcl := leasePair(t, f, sql)
			const foreign = 0xF00
			if l, err := ocl.LeaseAcquire(key, foreign, tc.ttl); err != nil || !l.Granted {
				t.Fatalf("foreign lease: %+v, %v", l, err)
			}
			// The victim misses, asks the owner, is denied — and must still
			// answer correctly, from a raw scan, without admitting.
			res, err := vcl.Query(sql)
			if err != nil {
				t.Fatalf("query under foreign lease: %v", err)
			}
			if got := res.Rows[0][0].(int64); got != 20 {
				t.Fatalf("raw-path count = %d, want 20", got)
			}
			if ins := f.engines[victim].CacheStats().Inserted; ins != 0 {
				t.Fatalf("victim admitted %d entries while the lease was held elsewhere", ins)
			}
			if tc.release {
				if err := ocl.LeaseRelease(key, foreign); err != nil {
					t.Fatal(err)
				}
			}
			// Released: the first retry builds (the lease would otherwise
			// outlive the wait). Expired: some retry after the TTL does.
			waitFor(t, 5*time.Second, "the victim to build", func() bool {
				if _, err := vcl.Query(sql); err != nil {
					t.Fatal(err)
				}
				return f.engines[victim].CacheStats().Inserted == 1
			})
		})
	}
}
