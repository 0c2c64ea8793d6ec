// Command recache is an interactive SQL shell over raw CSV/JSON files with
// the reactive cache enabled. Tables are registered from the command line;
// \cache shows live cache entries, \stats the hit/eviction counters,
// \explain the rewritten plan.
//
// By default the shell embeds its own engine. With -connect it attaches to
// a running recached daemon instead: queries, plans, registration, and the
// meta-commands (including \stats' cache counters) all execute daemon-side
// over the wire protocol.
//
// Usage:
//
//	recache -csv 'lineitem=path.csv:l_orderkey int, l_quantity int' \
//	        -json 'orders=path.json:o_orderkey int, items list(qty int)' \
//	        [-connect unix:/tmp/recached.sock] \
//	        [-e 'SELECT ...']            # one-shot, else REPL on stdin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"recache"
	"recache/internal/client"
)

type tableFlag struct {
	specs *[]string
}

func (t tableFlag) String() string { return "" }
func (t tableFlag) Set(s string) error {
	*t.specs = append(*t.specs, s)
	return nil
}

// queryResult is what the REPL prints: rows plus whichever cost accounting
// the backend can report (the wire carries server-side wall time only).
type queryResult struct {
	Columns []string
	Rows    [][]any
	Wall    time.Duration
	// Overhead is the caching overhead fraction; meaningful only when
	// HasOverhead (the embedded engine measures it, the wire does not carry
	// it).
	Overhead    float64
	HasOverhead bool
}

// statsView is what \stats prints: the cache counters plus an optional
// serving summary (daemon mode only).
type statsView struct {
	recache.CacheStats
	Server string
}

// backend abstracts where the shell's commands execute: the embedded
// engine, or a recached daemon over the wire.
type backend interface {
	Query(sql string) (*queryResult, error)
	Explain(sql string) (string, error)
	Tables() ([]string, error)
	TableSchema(name string) (string, error)
	Entries() ([]recache.EntryInfo, error)
	Stats() (statsView, error)
	RegisterCSV(name, path, schema string, delim byte) error
	RegisterJSON(name, path, schema string) error
}

// embedded runs everything on an in-process engine.
type embedded struct{ eng *recache.Engine }

func (b embedded) Query(sql string) (*queryResult, error) {
	res, err := b.eng.Query(sql)
	if err != nil {
		return nil, err
	}
	return &queryResult{
		Columns:     res.Columns,
		Rows:        res.Rows,
		Wall:        res.Stats.Wall,
		Overhead:    res.Stats.Overhead,
		HasOverhead: true,
	}, nil
}

func (b embedded) Explain(sql string) (string, error)      { return b.eng.Explain(sql) }
func (b embedded) Tables() ([]string, error)               { return b.eng.Tables(), nil }
func (b embedded) TableSchema(name string) (string, error) { return b.eng.TableSchema(name) }
func (b embedded) Entries() ([]recache.EntryInfo, error)   { return b.eng.CacheEntries(), nil }
func (b embedded) Stats() (statsView, error) {
	return statsView{CacheStats: b.eng.CacheStats()}, nil
}
func (b embedded) RegisterCSV(name, path, schema string, delim byte) error {
	return b.eng.RegisterCSV(name, path, schema, delim)
}
func (b embedded) RegisterJSON(name, path, schema string) error {
	return b.eng.RegisterJSON(name, path, schema)
}

// remote executes everything on a recached daemon.
type remote struct{ cl *client.Client }

func (b remote) Query(sql string) (*queryResult, error) {
	res, err := b.cl.Query(sql)
	if err != nil {
		return nil, err
	}
	return &queryResult{Columns: res.Columns, Rows: res.Rows, Wall: res.Wall}, nil
}

func (b remote) Explain(sql string) (string, error)      { return b.cl.Explain(sql) }
func (b remote) Tables() ([]string, error)               { return b.cl.Tables() }
func (b remote) TableSchema(name string) (string, error) { return b.cl.Schema(name) }

func (b remote) Entries() ([]recache.EntryInfo, error) {
	entries, err := b.cl.Entries()
	if err != nil {
		return nil, err
	}
	out := make([]recache.EntryInfo, len(entries))
	for i, e := range entries {
		out[i] = recache.EntryInfo{
			ID: e.ID, Table: e.Table, Predicate: e.Predicate,
			Mode: e.Mode, Layout: e.Layout, Bytes: e.Bytes, Reuses: e.Reuses,
		}
	}
	return out, nil
}

func (b remote) Stats() (statsView, error) {
	ws, err := b.cl.Stats()
	if err != nil {
		return statsView{}, err
	}
	return statsView{
		CacheStats: ws.Cache,
		Server: fmt.Sprintf("server: sessions=%d active=%d requests=%d in-flight=%d errors=%d draining=%v",
			ws.Server.Sessions, ws.Server.ActiveSessions, ws.Server.Requests,
			ws.Server.InFlight, ws.Server.Errors, ws.Server.Draining),
	}, nil
}

func (b remote) RegisterCSV(name, path, schema string, delim byte) error {
	return b.cl.RegisterCSV(name, path, schema, delim)
}
func (b remote) RegisterJSON(name, path, schema string) error {
	return b.cl.RegisterJSON(name, path, schema)
}

func main() {
	var csvSpecs, jsonSpecs []string
	var (
		connect   = flag.String("connect", "", "attach to a recached daemon (unix:/path or host:port) instead of embedding the engine")
		eviction  = flag.String("eviction", "recache", "eviction policy (embedded mode)")
		admission = flag.String("admission", "adaptive", "admission mode: adaptive|eager|lazy|off (embedded mode)")
		layout    = flag.String("layout", "auto", "cache layout: auto|parquet|columnar (embedded mode)")
		capacity  = flag.Int64("capacity", 0, "cache capacity in bytes (0 = unlimited; embedded mode)")
		spillDir  = flag.String("spill-dir", "", "spill directory for the disk cache tier (empty = spilling off; embedded mode)")
		diskCap   = flag.Int64("disk-capacity", 0, "disk tier capacity in bytes (0 = unlimited; needs -spill-dir; embedded mode)")
		freshness = flag.String("freshness", "off", "raw-file freshness mode: off|check-on-access (stat each queried file; a hit extends its entry over an appended tail; embedded mode)")
		oneShot   = flag.String("e", "", "execute one query and exit")
	)
	flag.Var(tableFlag{&csvSpecs}, "csv", "register CSV table: name=path[:schema] (repeatable)")
	flag.Var(tableFlag{&jsonSpecs}, "json", "register JSON table: name=path:schema (repeatable)")
	flag.Parse()

	var b backend
	if *connect != "" {
		cl, err := client.Dial(*connect, client.Options{})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		b = remote{cl}
	} else {
		eng, err := recache.Open(recache.Config{
			Eviction:       *eviction,
			Admission:      *admission,
			Layout:         *layout,
			CacheCapacity:  *capacity,
			SpillDir:       *spillDir,
			DiskCacheBytes: *diskCap,
			FreshnessMode:  *freshness,
		})
		if err != nil {
			fatal(err)
		}
		b = embedded{eng}
	}
	for _, spec := range csvSpecs {
		name, path, schema, err := splitSpec(spec)
		if err == nil {
			err = b.RegisterCSV(name, path, schema, '|')
		}
		if err != nil {
			fatal(err)
		}
	}
	for _, spec := range jsonSpecs {
		name, path, schema, err := splitSpec(spec)
		if err == nil {
			err = b.RegisterJSON(name, path, schema)
		}
		if err != nil {
			fatal(err)
		}
	}

	if *oneShot != "" {
		if err := runQuery(b, *oneShot, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *connect != "" {
		fmt.Printf("recache shell — connected to %s — \\help for commands\n", *connect)
	} else {
		fmt.Println("recache shell — \\help for commands")
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("recache> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if quit := metaCommand(b, line, os.Stdout); quit {
				return
			}
			continue
		}
		if err := runQuery(b, line, os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	}
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

func runQuery(b backend, sql string, w io.Writer) error {
	res, err := b.Query(sql)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			if v == nil {
				parts[i] = "NULL"
			} else {
				parts[i] = fmt.Sprint(v)
			}
		}
		fmt.Fprintln(w, strings.Join(parts, " | "))
	}
	if res.HasOverhead {
		fmt.Fprintf(w, "(%d rows, %v; cache overhead %.1f%%)\n",
			len(res.Rows), res.Wall.Round(1000), 100*res.Overhead)
	} else {
		fmt.Fprintf(w, "(%d rows, %v server wall)\n", len(res.Rows), res.Wall.Round(1000))
	}
	return nil
}

func metaCommand(b backend, line string, w io.Writer) (quit bool) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return true
	case "\\help":
		fmt.Fprintln(w, `\d               list tables
\d <table>      show a table's schema
\cache          list cache entries
\stats          cache counters
\explain <sql>  show the rewritten plan
\q              quit`)
	case "\\d":
		if len(fields) > 1 {
			s, err := b.TableSchema(fields[1])
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				return false
			}
			fmt.Fprintln(w, s)
			return false
		}
		tables, err := b.Tables()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		for _, t := range tables {
			fmt.Fprintln(w, t)
		}
	case "\\cache":
		entries, err := b.Entries()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		for _, e := range entries {
			fmt.Fprintf(w, "[%d] %s σ(%s) %s/%s %dB n=%d\n",
				e.ID, e.Table, e.Predicate, e.Mode, e.Layout, e.Bytes, e.Reuses)
		}
	case "\\stats":
		sv, err := b.Stats()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		s := sv.CacheStats
		fmt.Fprintf(w, "queries=%d exact=%d subsumed=%d misses=%d evictions=%d switches=%d upgrades=%d entries=%d bytes=%d\n",
			s.Queries, s.ExactHits, s.SubsumedHits, s.Misses, s.Evictions,
			s.LayoutSwitches, s.LazyUpgrades, s.Entries, s.TotalBytes)
		fmt.Fprintf(w, "vectorized-scans=%d vectorized-batches=%d\n",
			s.VectorizedScans, s.VectorizedBatches)
		fmt.Fprintf(w, "vectorized-joins=%d join-probe-batches=%d\n",
			s.VectorizedJoins, s.JoinProbeBatches)
		fmt.Fprintf(w, "pushdown-scans=%d pushed-conjuncts=%d records-skipped-early=%d\n",
			s.PushdownScans, s.PushedConjuncts, s.RecordsSkippedEarly)
		fmt.Fprintf(w, "disk-hits=%d spills=%d spill-drops=%d disk-entries=%d disk-bytes=%d\n",
			s.DiskHits, s.Spills, s.SpillDrops, s.DiskEntries, s.DiskBytes)
		fmt.Fprintf(w, "stale-invalidations=%d tail-extensions=%d tail-bytes-scanned=%d\n",
			s.StaleInvalidations, s.TailExtensions, s.TailBytesScanned)
		if sv.Server != "" {
			fmt.Fprintln(w, sv.Server)
		}
	case "\\explain":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		out, err := b.Explain(sql)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		fmt.Fprint(w, out)
	default:
		fmt.Fprintln(w, "unknown command; \\help")
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recache:", err)
	os.Exit(1)
}
