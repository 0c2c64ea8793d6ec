package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/server"
)

// startDaemon runs an engine + wire server on a unix socket and returns a
// remote backend attached to it, plus the engine for daemon-side asserts.
func startDaemon(t *testing.T) (remote, *recache.Engine) {
	t.Helper()
	var b []byte
	for i := 1; i <= 500; i++ {
		b = fmt.Appendf(b, "%d|%d|%d.5|name%d\n", i, (i%5+1)*10, i, i)
	}
	csv := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(csv, b, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := recache.Open(recache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("t", csv, "id int, qty int, price float, name string", '|'); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "recached.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		eng.Close()
	})
	cl, err := client.Dial("unix:"+sock, client.Options{RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return remote{cl}, eng
}

// The remote backend must produce the same rows the daemon's engine does,
// and print them in the shell's usual format.
func TestServerModeQuery(t *testing.T) {
	b, eng := startDaemon(t)

	const q = "SELECT id, name FROM t WHERE id BETWEEN 1 AND 3"
	var out bytes.Buffer
	if err := runQuery(b, q, &out); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) || !reflect.DeepEqual(res.Columns, want.Columns) {
		t.Fatalf("remote rows = %v %v, embedded = %v %v", res.Columns, res.Rows, want.Columns, want.Rows)
	}
	text := out.String()
	for _, frag := range []string{"id | name", "1 | name1", "3 | name3", "(3 rows, ", " server wall)"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("output missing %q:\n%s", frag, text)
		}
	}

	// A failing query reports the daemon's error without wedging the shell.
	if err := runQuery(b, "SELECT nope FROM t", &out); err == nil {
		t.Fatal("bad query: no error")
	}
	if err := runQuery(b, "SELECT COUNT(*) FROM t", &out); err != nil {
		t.Fatalf("shell wedged after error: %v", err)
	}
}

// \stats in server mode must print the daemon-side cache counters
// (including the pushdown and disk-tier lines) fetched over the wire, not
// a local engine's zeroes.
func TestServerModeStatsMeta(t *testing.T) {
	b, eng := startDaemon(t)

	// Drive daemon-side activity: a miss, an exact hit, a subsumed hit.
	for _, q := range []string{
		"SELECT id, qty FROM t WHERE id BETWEEN 1 AND 100",
		"SELECT id, qty FROM t WHERE id BETWEEN 1 AND 100",
		"SELECT id, qty FROM t WHERE id BETWEEN 10 AND 50",
	} {
		if _, err := b.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	if quit := metaCommand(b, `\stats`, &out); quit {
		t.Fatal("\\stats quit the shell")
	}
	text := out.String()
	if strings.Contains(text, "error:") {
		t.Fatalf("\\stats errored:\n%s", text)
	}

	// The counters printed must be the daemon engine's, fetched over the
	// wire — this REPL process has no engine of its own in -connect mode.
	s := eng.CacheStats()
	if s.Queries < 3 || s.ExactHits < 1 {
		t.Fatalf("daemon counters did not move: %+v", s)
	}
	for _, frag := range []string{
		fmt.Sprintf("queries=%d exact=%d subsumed=%d", s.Queries, s.ExactHits, s.SubsumedHits),
		fmt.Sprintf("disk-hits=%d spills=%d", s.DiskHits, s.Spills),
		"pushdown-scans=",
		"server: sessions=",
	} {
		if !strings.Contains(text, frag) {
			t.Fatalf("\\stats output missing %q:\n%s", frag, text)
		}
	}

	// The embedded backend prints the same counter lines but no serving
	// summary.
	emb, err := recache.Open(recache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer emb.Close()
	out.Reset()
	metaCommand(embedded{emb}, `\stats`, &out)
	if !strings.Contains(out.String(), "queries=0 ") {
		t.Fatalf("embedded \\stats: %q", out.String())
	}
	if strings.Contains(out.String(), "server:") {
		t.Fatalf("embedded \\stats printed a server line: %q", out.String())
	}
}

// The remaining meta-commands must work against the daemon too.
func TestServerModeMetaCommands(t *testing.T) {
	b, _ := startDaemon(t)

	var out bytes.Buffer
	metaCommand(b, `\d`, &out)
	if got := strings.TrimSpace(out.String()); got != "t" {
		t.Fatalf("\\d = %q, want t", got)
	}

	out.Reset()
	metaCommand(b, `\d t`, &out)
	if !strings.Contains(out.String(), "id int") || !strings.Contains(out.String(), "name string") {
		t.Fatalf("\\d t = %q", out.String())
	}

	out.Reset()
	metaCommand(b, `\explain SELECT COUNT(*) FROM t WHERE qty = 20`, &out)
	if !strings.Contains(out.String(), "scan") {
		t.Fatalf("\\explain = %q", out.String())
	}

	// Populate the cache, then \cache must list the daemon's entries.
	if _, err := b.Query("SELECT id FROM t WHERE qty = 20"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	metaCommand(b, `\cache`, &out)
	if !strings.Contains(out.String(), "] t σ(") {
		t.Fatalf("\\cache = %q", out.String())
	}

	out.Reset()
	if quit := metaCommand(b, `\q`, &out); !quit {
		t.Fatal("\\q did not quit")
	}
}
