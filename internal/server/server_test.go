package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/csvio"
	"recache/internal/plan"
	"recache/internal/share"
	"recache/internal/value"
)

func writeTemp(t testing.TB, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testCSV(t testing.TB, rows int) string {
	t.Helper()
	var b []byte
	for i := 1; i <= rows; i++ {
		b = fmt.Appendf(b, "%d|%d|%d.5|name%d\n", i, (i%5+1)*10, i, i)
	}
	return writeTemp(t, "t.csv", string(b))
}

// startServer serves eng on a fresh unix socket and returns its address.
// Cleanup shuts the server down (idempotent, so tests may drain earlier).
func startServer(t testing.TB, eng *recache.Engine) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "recached.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, "unix:" + sock
}

func dial(t testing.TB, addr string, opts client.Options) *client.Client {
	t.Helper()
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	cl, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// Every op must round-trip through the daemon and agree with the embedded
// engine's answers.
func TestServerOps(t *testing.T) {
	eng, err := recache.Open(recache.Config{Admission: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	csvPath := testCSV(t, 50)
	if err := eng.RegisterCSV("t", csvPath, "id int, qty int, price float, name string", '|'); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	cl := dial(t, addr, client.Options{})

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	queries := []string{
		"SELECT COUNT(*) FROM t WHERE qty BETWEEN 20 AND 40",
		"SELECT id, name FROM t WHERE qty = 30",
		"SELECT SUM(price), COUNT(*) FROM t",
		"SELECT name FROM t WHERE name = 'name7'",
	}
	for _, q := range queries {
		want, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: embedded: %v", q, err)
		}
		got, err := cl.Query(q)
		if err != nil {
			t.Fatalf("%s: over wire: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Fatalf("%s: columns %v, want %v", q, got.Columns, want.Columns)
		}
		wantRows := want.Rows
		if len(wantRows) == 0 {
			wantRows = nil
		}
		if !reflect.DeepEqual(got.Rows, wantRows) {
			t.Fatalf("%s: rows %v, want %v", q, got.Rows, wantRows)
		}
	}
	if _, err := cl.Query("SELECT nope FROM t"); err == nil {
		t.Fatal("bad query did not error over the wire")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection dead after query error: %v", err)
	}

	text, err := cl.Explain(queries[0])
	if err != nil || text == "" {
		t.Fatalf("explain: %q, %v", text, err)
	}
	tables, err := cl.Tables()
	if err != nil || !reflect.DeepEqual(tables, []string{"t"}) {
		t.Fatalf("tables: %v, %v", tables, err)
	}
	schema, err := cl.Schema("t")
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	if want, _ := eng.TableSchema("t"); schema != want {
		t.Fatalf("schema %q, want %q", schema, want)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Cache.Queries == 0 || stats.Server.Requests == 0 || stats.Server.ActiveSessions == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	entries, err := cl.Entries()
	if err != nil {
		t.Fatalf("entries: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no cache entries after eager queries")
	}
	ts, err := cl.TableStats("t")
	if err != nil || ts.RawScans < 1 {
		t.Fatalf("table stats: %+v, %v", ts, err)
	}

	// Registration over the wire: a second CSV becomes queryable.
	if err := cl.RegisterCSV("u", csvPath, "id int, qty int, price float, name string", '|'); err != nil {
		t.Fatalf("register csv: %v", err)
	}
	res, err := cl.Query("SELECT COUNT(*) FROM u")
	if err != nil || res.Rows[0][0].(int64) != 50 {
		t.Fatalf("query registered table: %v, %v", res, err)
	}
	if err := cl.RegisterCSV("u", csvPath, "", '|'); err == nil {
		t.Fatal("duplicate registration did not error")
	}
}

// A statement that nests without end — megabytes of "(" or "NOT", well under
// the request frame limit — used to overflow the parser's goroutine stack,
// which kills the whole daemon. It must cost its sender one error response:
// the session and the daemon keep answering.
func TestDeepStatementIsAnError(t *testing.T) {
	eng, err := recache.Open(recache.Config{Admission: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RegisterCSV("t", testCSV(t, 50), "id int, qty int, price float, name string", '|'); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	cl := dial(t, addr, client.Options{})
	bombs := []string{
		"SELECT id FROM t WHERE " + strings.Repeat("(", 1_500_000) + "id>1" + strings.Repeat(")", 1_500_000),
		"SELECT id FROM t WHERE " + strings.Repeat("NOT ", 500_000) + "id>1",
	}
	for _, bomb := range bombs {
		if len(bomb) >= maxRequestFrame {
			t.Fatalf("bomb of %d bytes would be refused by the frame limit, not the parser", len(bomb))
		}
		if _, err := eng.Query(bomb); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("embedded %.30q…: err = %v, want the nesting error", bomb, err)
		}
		_, err := cl.Query(bomb)
		var se *client.ServerError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), "nested deeper than") {
			t.Fatalf("over the wire %.30q…: err = %v, want the nesting error as a server error", bomb, err)
		}
		res, err := cl.Query("SELECT COUNT(*) FROM t WHERE (NOT (id > 10))")
		if err != nil || res.Rows[0][0].(int64) != 10 {
			t.Fatalf("query after the bomb on the same session: %v, %v", res, err)
		}
	}
	// A fresh session is served too: the daemon, not just the connection, survived.
	if err := dial(t, addr, client.Options{}).Ping(); err != nil {
		t.Fatalf("new session after the bombs: %v", err)
	}
}

// One connection, many concurrent queries: pipelining must keep them all
// in flight and match every response to its request.
func TestPipelinedRequests(t *testing.T) {
	eng, err := recache.Open(recache.Config{Admission: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RegisterCSV("t", testCSV(t, 200), "id int, qty int, price float, name string", '|'); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	cl := dial(t, addr, client.Options{PoolSize: 1})

	const workers = 16
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := w*25 + i%200 + 1
				res, err := cl.Query(fmt.Sprintf("SELECT id FROM t WHERE id = %d", (id%200)+1))
				if err != nil {
					errCh <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64((id%200)+1) {
					errCh <- fmt.Errorf("worker %d: wrong row %v for id %d", w, res.Rows, (id%200)+1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// gateProvider reports each full-file Scan start on started and holds it
// until a token arrives on gate, so the test can freeze a raw scan at a
// deterministic point while a 16-client burst gathers behind it (the same
// device the embedded shared-scan tests use).
type gateProvider struct {
	plan.ScanProvider
	started chan int
	gate    chan struct{}
	scans   atomic.Int64
}

func (p *gateProvider) Scan(needed []value.Path, fn plan.ScanFunc) error {
	n := p.scans.Add(1)
	p.started <- int(n)
	<-p.gate
	return p.ScanProvider.Scan(needed, fn)
}

// Scans lets Engine.RawScans (and so OpTableStats) count the wrapper.
func (p *gateProvider) Scans() int64 { return p.scans.Load() }

// A 16-client cold burst over the wire must gather into ONE shared cycle:
// one raw parse serves all 16 pipelined sessions, and the shared-scan
// counters are observable through the client.
func TestColdBurstSharedScanOverWire(t *testing.T) {
	eng, err := recache.Open(recache.Config{Admission: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// A long window keeps the cycle gathering until the frozen pilot scan
	// releases; the cycle then seals early, deterministically.
	eng.ConfigureSharedScans(true, share.Config{Window: 30 * time.Second})
	st, err := recache.ParseSchema("id int, qty int, price float, name string")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := csvio.New(testCSV(t, 500), st, csvio.Options{Delim: '|'})
	if err != nil {
		t.Fatal(err)
	}
	prov := &gateProvider{ScanProvider: inner, started: make(chan int, 4), gate: make(chan struct{}, 4)}
	if err := eng.RegisterProvider("t", plan.FormatCSV, prov); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)

	const clients = 16
	cls := make([]*client.Client, clients)
	for i := range cls {
		cls[i] = dial(t, addr, client.Options{PoolSize: 1})
	}
	pilot := dial(t, addr, client.Options{PoolSize: 1})

	// Pilot: a cold query frozen mid-scan, so the dataset has a raw scan in
	// flight when the burst arrives.
	pilotDone := make(chan error, 1)
	go func() {
		_, err := pilot.Query("SELECT COUNT(*) FROM t WHERE id BETWEEN 1 AND 10")
		pilotDone <- err
	}()
	if s := <-prov.started; s != 1 {
		t.Fatalf("pilot scan ordinal = %d", s)
	}

	// The burst: 16 clients, disjoint predicates (all cold misses — only
	// work sharing can serve them from one parse).
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			lo := i * 30
			res, err := cl.Query(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", lo+1, lo+30))
			if err != nil {
				errCh <- err
				return
			}
			if got := res.Rows[0][0].(int64); got != 30 {
				errCh <- fmt.Errorf("client %d: count = %d, want 30", i, got)
			}
		}(i, cl)
	}

	// Watch the gathering cycle through the wire: Explain's shared-scan
	// annotation reports the waiting-consumer count, side-effect-free.
	waitingQ := "SELECT COUNT(*) FROM t WHERE id BETWEEN 481 AND 500"
	deadline := time.Now().Add(20 * time.Second)
	for {
		text, err := pilot.Explain(waitingQ)
		if err != nil {
			t.Fatalf("explain while gathering: %v", err)
		}
		if strings.Contains(text, fmt.Sprintf("shared-scan: %d waiting", clients)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst never gathered; explain says:\n%s", text)
		}
		time.Sleep(time.Millisecond)
	}

	prov.gate <- struct{}{} // release the pilot; the cycle seals early
	if s := <-prov.started; s != 2 {
		t.Fatalf("burst cycle scan ordinal = %d, want 2", s)
	}
	prov.gate <- struct{}{} // release the one shared scan
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := <-pilotDone; err != nil {
		t.Fatal(err)
	}

	// One parse for the pilot plus exactly one for the whole 16-client
	// burst — observed through the client, not the engine.
	ts, err := cls[0].TableStats("t")
	if err != nil {
		t.Fatalf("table stats over wire: %v", err)
	}
	if ts.RawScans != 2 {
		t.Fatalf("wire-reported raw scans = %d, want 2 (pilot + one shared cycle)", ts.RawScans)
	}
	stats, err := cls[0].Stats()
	if err != nil {
		t.Fatalf("stats over wire: %v", err)
	}
	if stats.Cache.SharedScans != 1 || stats.Cache.SharedConsumers != clients {
		t.Fatalf("shared-scan counters over wire: scans=%d consumers=%d, want 1/%d",
			stats.Cache.SharedScans, stats.Cache.SharedConsumers, clients)
	}
}

// slowProvider delays each scan so Shutdown provably overlaps in-flight
// queries.
type slowProvider struct {
	plan.ScanProvider
	delay time.Duration
}

func (p *slowProvider) Scan(needed []value.Path, fn plan.ScanFunc) error {
	time.Sleep(p.delay)
	return p.ScanProvider.Scan(needed, fn)
}

// Shutdown during in-flight queries: every accepted request completes and
// gets its response, connections close cleanly, and no cache transaction
// stays open.
func TestShutdownDrainsInFlight(t *testing.T) {
	eng, err := recache.Open(recache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := recache.ParseSchema("id int, qty int, price float, name string")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := csvio.New(testCSV(t, 100), st, csvio.Options{Delim: '|'})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterProvider("t", plan.FormatCSV, &slowProvider{ScanProvider: inner, delay: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, eng)
	cl := dial(t, addr, client.Options{PoolSize: 2, RequestTimeout: 10 * time.Second})

	const inflight = 8
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			lo := i * 10
			res, err := cl.Query(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", lo+1, lo+10))
			if err == nil && res.Rows[0][0].(int64) != 10 {
				err = fmt.Errorf("query %d: count = %v", i, res.Rows[0][0])
			}
			results <- err
		}(i)
	}
	// Give the requests time to hit the server, then drain while the slow
	// scans are still running.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			// A request the reader had not yet pulled off the socket when
			// the drain kicked is reported as a lost connection — allowed;
			// silence or a wrong row is not.
			if !errors.Is(err, client.ErrClosed) && !isConnErr(err) {
				t.Fatalf("in-flight query: %v", err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().OpenTxns; got != 0 {
		t.Fatalf("OpenTxns = %d after drain, want 0", got)
	}
	// New connections must be refused after drain.
	if _, err := client.Dial(addr, client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after Shutdown")
	}
	if s := srv.Stats(); !s.Draining || s.ActiveSessions != 0 || s.InFlight != 0 {
		t.Fatalf("post-drain stats: %+v", s)
	}
}

func isConnErr(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "connection lost") ||
		strings.Contains(msg, "send:") ||
		strings.Contains(msg, "closed")
}
