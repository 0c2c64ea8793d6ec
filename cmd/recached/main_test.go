package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/server"
	"recache/internal/shard"
	"recache/internal/wire"
)

// syncBuffer lets the test read the daemon's output while run() writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func writeCSV(t *testing.T, rows int) string {
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

// The acceptance-criterion test: SIGTERM while queries are in flight must
// let them complete, close every connection cleanly, leave no transaction
// pinned, and exit 0.
func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "recached.sock")
	csv := writeCSV(t, 20000)
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{
			"-unix", sock,
			"-stats", "127.0.0.1:0",
			"-csv", "t=" + csv + ":id int, qty int, price float, name string",
		}, &stdout, &stderr)
	}()

	// Wait for the daemon to listen.
	var cl *client.Client
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		cl, err = client.Dial("unix:"+sock, client.Options{
			DialTimeout:    time.Second,
			RequestTimeout: 30 * time.Second,
			PoolSize:       4,
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v\nstderr: %s", err, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// One warm query, then scrape the HTTP stats endpoint.
	if _, err := cl.Query("SELECT COUNT(*) FROM t WHERE qty = 20"); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`http:(\S+)`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no stats address in output: %q", stdout.String())
	}
	resp, err := http.Get("http://" + m[1] + "/stats")
	if err != nil {
		t.Fatalf("stats endpoint: %v", err)
	}
	var ws wire.Stats
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if ws.Cache.Queries < 1 || ws.Server.Requests < 2 {
		t.Fatalf("implausible scraped stats: %+v", ws)
	}

	// Fire a burst of cold-range queries and SIGTERM the daemon while they
	// are in flight.
	const inflight = 24
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			lo := (i * 800) % 19000
			res, err := cl.Query(fmt.Sprintf(
				"SELECT COUNT(*), SUM(price) FROM t WHERE id BETWEEN %d AND %d", lo+1, lo+800))
			if err == nil && res.Rows[0][0].(int64) != 800 {
				err = fmt.Errorf("query %d: count = %v, want 800", i, res.Rows[0][0])
			}
			results <- err
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	completed, dropped := 0, 0
	for i := 0; i < inflight; i++ {
		err := <-results
		switch {
		case err == nil:
			completed++
		case strings.Contains(err.Error(), "connection lost") ||
			strings.Contains(err.Error(), "closed") ||
			strings.Contains(err.Error(), "send:"):
			// The drain kicked before the server read this request off the
			// socket; it was never accepted, so "all in-flight complete"
			// does not cover it.
			dropped++
		default:
			t.Fatalf("in-flight query failed: %v", err)
		}
	}
	code := <-exit
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	t.Logf("drain: %d completed, %d dropped before accept", completed, dropped)
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained, bye") {
		t.Fatalf("missing drain log lines: %q", out)
	}
	if s := stderr.String(); strings.Contains(s, "transactions open") {
		t.Fatalf("drain left transactions open: %s", s)
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Fatalf("socket file not cleaned up: %v", err)
	}
}

// Graceful removal: SIGTERM with -drain must announce departure to the
// peers and stream the working set to the new rendezvous owners before
// exiting, so the survivor serves the drained shard's keys from its disk
// tier without a single raw re-scan.
func TestDrainHandsOffWorkingSet(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, 5000)
	schema := "id int, qty int, price float, name string"
	sock0 := filepath.Join(dir, "s0.sock")
	sock1 := filepath.Join(dir, "s1.sock")
	fleet := "unix:" + sock0 + ",unix:" + sock1

	// The survivor (shard 1) is built manually so the test's SIGTERM only
	// reaches the daemon under test. It has a spill dir: replica handoffs
	// land in the disk tier.
	m, err := shard.ParseFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := server.NewMember(1, m, recache.Config{
		Admission: "eager",
		SpillDir:  filepath.Join(dir, "spill1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	surv := survivor.Engine()
	if err := surv.RegisterCSV("t", csv, schema, '|'); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("unix", sock1)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- survivor.Serve(ln) }()
	defer func() {
		survivor.Close()
		if err := <-served; err != nil {
			t.Errorf("survivor Serve: %v", err)
		}
	}()

	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{
			"-unix", sock0,
			"-csv", "t=" + csv + ":" + schema,
			"-admission", "eager",
			"-fleet", fleet,
			"-shard-id", "0",
			"-drain",
		}, &stdout, &stderr)
	}()
	cl := dialUntilUp(t, sock0, &stderr)
	defer cl.Close()

	// Warm a working set on the draining shard.
	queries := []string{
		"SELECT COUNT(*) FROM t WHERE id BETWEEN 1 AND 100",
		"SELECT COUNT(*) FROM t WHERE id BETWEEN 101 AND 200",
		"SELECT COUNT(*) FROM t WHERE qty = 20",
		"SELECT COUNT(*) FROM t WHERE id <= 500",
	}
	for _, q := range queries {
		if _, _, err := cl.Exec(q); err != nil {
			t.Fatalf("warm %s: %v", q, err)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-exit; code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "drain handed off") {
		t.Fatalf("no handoff log line: %q", out)
	}

	// The survivor holds the drained working set in its disk tier...
	if admits := surv.Manager().Stats().ReplicaAdmits; admits < int64(len(queries)) {
		t.Fatalf("survivor admitted %d replicas, want >= %d\nstdout: %s", admits, len(queries), out)
	}
	// ...and serves those keys as cache hits, not raw scans.
	scl, err := client.Dial("unix:"+sock1, client.Options{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	rows, _, err := scl.Exec(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("survivor answered %d rows", rows)
	}
	if raw := surv.RawScans("t"); raw != 0 {
		t.Fatalf("survivor raw-scanned %d times; drained keys must hit the handed-off replicas", raw)
	}
	if hits := surv.Manager().Stats().DiskHits; hits == 0 {
		t.Fatal("survivor served without touching the disk tier")
	}
}

// dialUntilUp dials the daemon's socket until it answers (it is starting
// on another goroutine).
func dialUntilUp(t *testing.T, sock string, stderr *syncBuffer) *client.Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := client.Dial("unix:"+sock, client.Options{
			DialTimeout:    time.Second,
			RequestTimeout: 30 * time.Second,
		})
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v\nstderr: %s", err, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Bad invocations must fail fast with exit code 2 and a usage hint.
func TestBadFlags(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no listeners: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-unix") {
		t.Fatalf("unhelpful error: %q", stderr.String())
	}
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}
