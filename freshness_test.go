package recache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The differential freshness corpus: every scenario mutates a raw file
// under a freshness-enabled engine and checks the engine's answers against
// a cold oracle — a cache-less engine opened on the final file state. The
// engine under test may transiently serve the pre-mutation state (that is
// the consistency model), but once a query observes the revalidated file
// its answer must be byte-identical to the oracle's.

func freshCSV(t testing.TB, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grow.csv")
	writeRows(t, path, 0, rows)
	return path
}

// freshJSON is freshCSV's nested twin: the same id, qty and price fields,
// then an items list — empty, absent or of one to three elements.
func freshJSON(t testing.TB, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grow.json")
	writeRows(t, path, 0, rows)
	return path
}

const freshNestedSchema = "id int, qty int, price int, items list(q int, p int)"

// freshRows renders rows [from, to) for path's format, with deterministic
// fields.
func freshRows(path string, from, to int) []byte {
	var b []byte
	for i := from; i < to; i++ {
		if !strings.HasSuffix(path, ".json") {
			b = fmt.Appendf(b, "%d|%d|%d\n", i, i%100, i%7)
			continue
		}
		b = fmt.Appendf(b, `{"id":%d,"qty":%d,"price":%d`, i, i%100, i%7)
		switch k := i % 5; k {
		case 0:
			b = append(b, `,"items":[]`...)
		case 1: // absent
		default:
			b = append(b, `,"items":[`...)
			for j := 1; j < k; j++ {
				if j > 1 {
					b = append(b, ',')
				}
				b = fmt.Appendf(b, `{"q":%d,"p":%d}`, (i+j)%9, j)
			}
			b = append(b, ']')
		}
		b = append(b, "}\n"...)
	}
	return b
}

// writeRows rewrites path to hold rows [from, to). The rewrite is atomic
// (temp file + rename): that is the contract mutable-file support assumes
// for rewrites — an in-place truncate-then-write exposes torn intermediate
// states that no freshness check can distinguish from a corrupt file, and
// concurrent raw scans would (correctly) fail parsing them.
func writeRows(t testing.TB, path string, from, to int) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, freshRows(path, from, to), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// appendRows appends rows [from, to) to path with O_APPEND, in one write
// that ends on a record boundary.
func appendRows(t testing.TB, path string, from, to int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(freshRows(path, from, to)); err != nil {
		t.Fatal(err)
	}
}

// freshEngine opens an engine with cfg and registers path as table g.
func freshEngine(t testing.TB, path string, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if strings.HasSuffix(path, ".json") {
		err = eng.RegisterJSON("g", path, freshNestedSchema)
	} else {
		err = eng.RegisterCSV("g", path, "id int, qty int, price int", '|')
	}
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// checkOracle compares the engine's answer for q against a cold cache-less
// engine reading the file's current state.
func checkOracle(t *testing.T, eng *Engine, path, q string) {
	t.Helper()
	oracle := freshEngine(t, path, Config{Admission: "off"})
	want, err := oracle.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s:\n  fresh  %v\n  oracle %v", q, got.Rows, want.Rows)
	}
}

const freshQ = "SELECT COUNT(*), SUM(price) FROM g WHERE qty >= 10"

func TestFreshnessAppendExtendsEager(t *testing.T) {
	path := freshCSV(t, 1000)
	eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check"})

	checkOracle(t, eng, path, freshQ) // builds the eager entry
	appendRows(t, path, 1000, 1500)
	checkOracle(t, eng, path, freshQ)
	appendRows(t, path, 1500, 1700)
	checkOracle(t, eng, path, freshQ)

	st := eng.CacheStats()
	if st.TailExtensions < 2 {
		t.Fatalf("TailExtensions = %d, want >= 2 (appends must extend, not rebuild)", st.TailExtensions)
	}
	if st.StaleInvalidations != 0 {
		t.Fatalf("StaleInvalidations = %d on pure appends", st.StaleInvalidations)
	}
	if st.TailBytesScanned <= 0 {
		t.Fatalf("TailBytesScanned = %d, want > 0", st.TailBytesScanned)
	}
}

// TestFreshnessNestedAppendExtends: an eager entry over nested records
// catches up with appends like a flat one, in every layout: each append
// extends it — no invalidation, no second build — and a scalar aggregate,
// an aggregate over the unnested items and a row projection, all served by
// that one entry, keep the cold engine's answers.
func TestFreshnessNestedAppendExtends(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*), SUM(price), MIN(id) FROM g WHERE qty >= 10",
		"SELECT COUNT(*), SUM(items.p), MAX(items.q) FROM g WHERE qty >= 10",
		"SELECT id, price FROM g WHERE qty >= 10",
	}
	for _, layout := range []string{"auto", "parquet", "columnar"} {
		t.Run(layout, func(t *testing.T) {
			path := freshJSON(t, 1000)
			eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check", Layout: layout})
			for _, rows := range [][2]int{{0, 0}, {1000, 1400}, {1400, 1500}} {
				appendRows(t, path, rows[0], rows[1])
				for _, q := range queries {
					checkOracle(t, eng, path, q)
				}
			}
			st := eng.CacheStats()
			if st.TailExtensions < 2 || st.StaleInvalidations != 0 || st.Inserted != 1 {
				t.Errorf("tail extensions %d, stale invalidations %d, inserts %d: want >= 2, 0, 1",
					st.TailExtensions, st.StaleInvalidations, st.Inserted)
			}
		})
	}
}

func TestFreshnessAppendExtendsLazy(t *testing.T) {
	path := freshCSV(t, 1000)
	eng := freshEngine(t, path, Config{Admission: "lazy", FreshnessMode: "check"})

	checkOracle(t, eng, path, freshQ)
	appendRows(t, path, 1000, 1400)
	checkOracle(t, eng, path, freshQ)

	st := eng.CacheStats()
	if st.TailExtensions < 1 {
		t.Fatalf("TailExtensions = %d, want >= 1", st.TailExtensions)
	}
	if st.StaleInvalidations != 0 {
		t.Fatalf("StaleInvalidations = %d on pure appends", st.StaleInvalidations)
	}
}

func TestFreshnessRewriteInvalidates(t *testing.T) {
	path := freshCSV(t, 1000)
	eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check-on-access"})

	checkOracle(t, eng, path, freshQ)
	writeRows(t, path, 500, 2000) // rewrite: different rows, different length
	checkOracle(t, eng, path, freshQ)

	st := eng.CacheStats()
	if st.StaleInvalidations < 1 {
		t.Fatalf("StaleInvalidations = %d, want >= 1 after rewrite", st.StaleInvalidations)
	}
}

func TestFreshnessTruncateIsRewrite(t *testing.T) {
	path := freshCSV(t, 1000)
	eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check"})

	checkOracle(t, eng, path, freshQ)
	writeRows(t, path, 0, 300) // same prefix rows, shorter file
	checkOracle(t, eng, path, freshQ)

	st := eng.CacheStats()
	if st.StaleInvalidations < 1 {
		t.Fatalf("StaleInvalidations = %d, want >= 1 after truncate", st.StaleInvalidations)
	}
	if st.TailExtensions != 0 {
		t.Fatalf("TailExtensions = %d after truncate, want 0", st.TailExtensions)
	}
}

func TestFreshnessOffStaysStale(t *testing.T) {
	// The historical contract: with freshness off, a cached answer keeps
	// being served from the pre-append snapshot.
	path := freshCSV(t, 1000)
	eng := freshEngine(t, path, Config{Admission: "eager"})

	first, err := eng.Query(freshQ)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, path, 1000, 1500)
	second, err := eng.Query(freshQ)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("freshness off: answer moved after append: %v -> %v", first.Rows, second.Rows)
	}
}

// TestFreshnessRewriteMidBurst runs a query swarm while a writer
// alternately appends to and rewrites the file. Every query must succeed
// (epoch-changed replays retry internally), and once the writer stops the
// engine must converge on the oracle's answer for the final file state.
func TestFreshnessRewriteMidBurst(t *testing.T) {
	path := freshCSV(t, 2000)
	eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check"})

	const readers, perReader = 4, 25
	var wgReaders, wgWriter sync.WaitGroup
	errCh := make(chan error, readers)
	stop := make(chan struct{})

	wgWriter.Add(1)
	go func() { // writer: append, append, rewrite, repeat until stopped
		defer wgWriter.Done()
		n := 2000
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0, 1:
				appendRows(t, path, n, n+100)
				n += 100
			default:
				n = 1000 + (i%5)*200
				writeRows(t, path, 0, n)
			}
		}
	}()
	for w := 0; w < readers; w++ {
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			for i := 0; i < perReader; i++ {
				if _, err := eng.Query(freshQ); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wgReaders.Wait()
	close(stop)
	wgWriter.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	checkOracle(t, eng, path, freshQ)
}

// TestFreshnessAppendMidSwarm checks appends under concurrency: a
// continuous appender races a query swarm (raw scans, pinned entries,
// extensions all interleave), and the final quiesced answer matches the
// oracle.
func TestFreshnessAppendMidSwarm(t *testing.T) {
	path := freshCSV(t, 2000)
	eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check"})

	const readers, perReader, appends = 6, 20, 40
	var wg sync.WaitGroup
	errCh := make(chan error, readers)

	// Both entries exist before the first append, so every append finds
	// them, pinned or not.
	checkOracle(t, eng, path, freshQ)
	checkOracle(t, eng, path, "SELECT COUNT(*), SUM(qty) FROM g WHERE price >= 3")

	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 2000
		for i := 0; i < appends; i++ {
			appendRows(t, path, n, n+50)
			n += 50
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				q := freshQ
				if (w+i)%2 == 1 {
					// A second predicate keeps multiple entries alive, so
					// extensions hit pinned and unpinned entries alike.
					q = "SELECT COUNT(*), SUM(qty) FROM g WHERE price >= 3"
				}
				if _, err := eng.Query(q); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	checkOracle(t, eng, path, freshQ)
	checkOracle(t, eng, path, "SELECT COUNT(*), SUM(qty) FROM g WHERE price >= 3")

	// Nothing is dropped for being busy or pinned when the append lands, and
	// an entry is extended at most once per append: readers that find an
	// extension in flight wait for its commit, they do not clone their own.
	st := eng.CacheStats()
	if st.StaleInvalidations != 0 {
		t.Errorf("StaleInvalidations = %d on pure appends", st.StaleInvalidations)
	}
	if st.TailExtensions == 0 || st.TailExtensions > 2*appends {
		t.Errorf("TailExtensions = %d, want 1..%d (two entries, %d appends)", st.TailExtensions, 2*appends, appends)
	}
}

// TestFreshnessAppendExtendsSpilled: an append beside an entry in the disk
// tier costs that entry nothing until it is read, and then one spill-file
// read plus a scan of the tail — never a raw re-scan — for flat and nested
// records alike.
func TestFreshnessAppendExtendsSpilled(t *testing.T) {
	t.Run("flat", func(t *testing.T) { testAppendExtendsSpilled(t, freshCSV(t, 5000), 20<<10) })
	t.Run("nested", func(t *testing.T) { testAppendExtendsSpilled(t, freshJSON(t, 5000), 40<<10) })
}

// testAppendExtendsSpilled runs TestFreshnessAppendExtendsSpilled over the
// 5000 rows at path, under a capacity of about one entry: the rest live in
// the disk tier.
func testAppendExtendsSpilled(t *testing.T, path string, capacity int64) {
	eng := freshEngine(t, path, Config{
		Admission:     "eager",
		FreshnessMode: "check",
		CacheCapacity: capacity,
		SpillDir:      filepath.Join(t.TempDir(), "spill"),
	})
	q := func(i int) string {
		return fmt.Sprintf("SELECT COUNT(*), SUM(price) FROM g WHERE qty BETWEEN %d AND %d", i*10, i*10+9)
	}
	for i := 0; i < 10; i++ {
		checkOracle(t, eng, path, q(i))
	}
	spilled := -1
	for i, e := range eng.CacheEntries() {
		if e.Layout == "disk" {
			spilled = i
			break
		}
	}
	if spilled < 0 {
		t.Fatalf("no entry in the disk tier (stats %+v)", eng.CacheStats())
	}
	pred := eng.CacheEntries()[spilled].Predicate
	before, raw := eng.CacheStats(), eng.RawScans("g")

	appendRows(t, path, 5000, 5600) // every qty decade gains rows
	sql := "SELECT COUNT(*), SUM(price) FROM g WHERE " + pred
	if out, err := eng.Explain(sql); err != nil || !strings.Contains(out, "+disk") {
		t.Fatalf("the key is not a disk hit (%v):\n%s", err, out)
	}
	checkOracle(t, eng, path, sql)

	st := eng.CacheStats()
	if st.TailExtensions != before.TailExtensions+1 {
		t.Errorf("TailExtensions %d -> %d, want +1", before.TailExtensions, st.TailExtensions)
	}
	if st.StaleInvalidations != 0 {
		t.Errorf("StaleInvalidations = %d on a pure append", st.StaleInvalidations)
	}
	if st.DiskHits != before.DiskHits+1 || st.Misses != before.Misses {
		t.Errorf("disk hits %d -> %d, misses %d -> %d: want one disk hit, no miss",
			before.DiskHits, st.DiskHits, before.Misses, st.Misses)
	}
	if got := eng.RawScans("g"); got != raw {
		t.Errorf("raw scans %d -> %d: a spilled entry was rebuilt from the file", raw, got)
	}
}

// TestFreshnessReplicaDiesAtFirstGrowth: a replica is a peer's payload filed
// under this process's view of the file, so it cannot extend. It serves
// until the file grows, is dropped by the first lookup after that, and a
// drain never ships an entry that trails the file.
func TestFreshnessReplicaDiesAtFirstGrowth(t *testing.T) {
	path := freshCSV(t, 1000)
	cfg := func() Config {
		return Config{Admission: "eager", FreshnessMode: "check", SpillDir: filepath.Join(t.TempDir(), "spill")}
	}
	export := func(eng *Engine) map[string][]byte {
		t.Helper()
		out := map[string][]byte{}
		err := eng.ExportEntries(func(_, predCanon string, payload []byte) error {
			out[predCanon] = append([]byte(nil), payload...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	owner := freshEngine(t, path, cfg())
	checkOracle(t, owner, path, freshQ)
	pushed := export(owner)
	if len(pushed) != 1 {
		t.Fatalf("owner exported %d entries, want 1", len(pushed))
	}

	peer := freshEngine(t, path, cfg())
	for canon, payload := range pushed {
		if err := peer.AdmitReplica("g", canon, payload); err != nil {
			t.Fatal(err)
		}
	}
	checkOracle(t, peer, path, freshQ)
	if st := peer.CacheStats(); st.DiskHits != 1 || peer.RawScans("g") != 0 {
		t.Fatalf("the replica did not serve: disk hits %d, raw scans %d", st.DiskHits, peer.RawScans("g"))
	}

	appendRows(t, path, 1000, 1300)
	checkOracle(t, peer, path, freshQ)
	st := peer.CacheStats()
	if st.StaleInvalidations != 1 || st.TailExtensions != 0 {
		t.Errorf("after the append: %d stale invalidations, %d tail extensions; want the replica dropped, not extended",
			st.StaleInvalidations, st.TailExtensions)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (the rebuild that replaced the replica)", st.Misses)
	}

	// The rebuilt entry trails after the next append until it is read.
	appendRows(t, path, 1300, 1400)
	other := "SELECT COUNT(*) FROM g WHERE price >= 5"
	checkOracle(t, peer, path, other)
	drained := export(peer)
	if len(drained) != 1 {
		t.Errorf("drain exported %d entries, want only the current one", len(drained))
	}
	for canon := range pushed {
		if _, ok := drained[canon]; ok {
			t.Errorf("drain exported %q, which trails the file", canon)
		}
	}
}

// TestFreshnessSpillInvalidation: a rewrite must also kill entries whose
// payload lives in the disk tier — a spill file serializes bytes of the
// dead epoch.
func TestFreshnessSpillInvalidation(t *testing.T) {
	path := freshCSV(t, 5000)
	eng := freshEngine(t, path, Config{
		Admission:     "eager",
		Layout:        "columnar",
		FreshnessMode: "check",
		CacheCapacity: 20 << 10, // force churn through the disk tier
		SpillDir:      filepath.Join(t.TempDir(), "spill"),
	})

	for i := 0; i < 10; i++ {
		checkOracle(t, eng, path,
			fmt.Sprintf("SELECT COUNT(*), SUM(price) FROM g WHERE id BETWEEN %d AND %d", i*500, i*500+499))
	}
	if st := eng.CacheStats(); st.Spills == 0 {
		t.Skipf("no spills under this budget (stats: %+v)", st)
	}

	writeRows(t, path, 0, 4000) // rewrite: truncation + same-prefix rows
	for i := 0; i < 8; i++ {
		checkOracle(t, eng, path,
			fmt.Sprintf("SELECT COUNT(*), SUM(price) FROM g WHERE id BETWEEN %d AND %d", i*500, i*500+499))
	}
	st := eng.CacheStats()
	if st.StaleInvalidations == 0 {
		t.Fatalf("StaleInvalidations = 0 after rewrite with spilled entries (stats %+v)", st)
	}
}

func TestFreshnessExplainNote(t *testing.T) {
	path := freshCSV(t, 1000)
	eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check"})
	explain := func(q string) string {
		t.Helper()
		out, err := eng.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out, want := explain("SELECT COUNT(*) FROM g WHERE qty > 1000"), "freshness: check-on-access"; !strings.Contains(out, want) {
		t.Fatalf("Explain output missing %q:\n%s", want, out)
	}

	// A hit that will first pay a catch-up says so, and saying so pays nothing.
	checkOracle(t, eng, path, freshQ)
	if out := explain(freshQ); !strings.Contains(out, "exact") || strings.Contains(out, "+trailing") {
		t.Fatalf("a current entry is not a plain exact hit:\n%s", out)
	}
	appendRows(t, path, 1000, 1200)
	checkOracle(t, eng, path, "SELECT COUNT(*) FROM g WHERE price >= 5") // a query that sees the append
	before := eng.CacheStats()
	if out := explain(freshQ); !strings.Contains(out, "exact+trailing") {
		t.Fatalf("a trailing entry is not marked:\n%s", out)
	}
	if st := eng.CacheStats(); st != before {
		t.Fatalf("EXPLAIN moved the counters: %+v -> %+v", before, st)
	}
	checkOracle(t, eng, path, freshQ)
	if out := explain(freshQ); strings.Contains(out, "+trailing") {
		t.Fatalf("the entry still trails after a read:\n%s", out)
	}
}
