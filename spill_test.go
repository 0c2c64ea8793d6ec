package recache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"recache/internal/datagen"
	"recache/internal/store"
	"recache/internal/value"
)

// spillCSV writes an n-row CSV whose per-row values are exactly
// representable in float64, so cached and raw execution sum identically.
func spillCSV(t testing.TB, n int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d|%d|%d\n", i, i%100, i%500)
	}
	dir, err := os.MkdirTemp("", "recache-spill-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "big.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func spillEngine(t testing.TB, path string, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("big", path, "id int, qty int, price float", '|'); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTieredCacheDifferential runs a working set ~10× the RAM budget
// through a spill-enabled engine and checks every result against a
// no-cache baseline: entries must churn through the disk tier (spills and
// disk hits observed) without ever changing an answer.
func TestTieredCacheDifferential(t *testing.T) {
	const rows, ranges, span = 10000, 10, 1000
	path := spillCSV(t, rows)
	base := spillEngine(t, path, Config{Admission: "off"})
	tiered := spillEngine(t, path, Config{
		Admission:     "eager",
		Layout:        "columnar",
		CacheCapacity: 26 << 10, // roughly one entry: working set ~10× this
		SpillDir:      filepath.Join(t.TempDir(), "spill"),
	})

	check := func(q string) {
		t.Helper()
		want, err := base.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tiered.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s:\n  tiered  %v\n  nocache %v", q, got.Rows, want.Rows)
		}
	}

	// Round 1 builds one entry per range (most spill under the tiny RAM
	// budget); round 2 repeats exactly (disk hits read the columns they
	// scan from the files); round 3 asks narrower ranges (subsumption must
	// still match spilled entries).
	for i := 0; i < ranges; i++ {
		check(fmt.Sprintf("SELECT SUM(price), COUNT(*) FROM big WHERE id BETWEEN %d AND %d",
			i*span, i*span+span-1))
	}
	for i := 0; i < ranges; i++ {
		check(fmt.Sprintf("SELECT SUM(price), COUNT(*) FROM big WHERE id BETWEEN %d AND %d",
			i*span, i*span+span-1))
	}
	for i := 0; i < ranges; i++ {
		check(fmt.Sprintf("SELECT SUM(qty), COUNT(*) FROM big WHERE id BETWEEN %d AND %d",
			i*span+100, i*span+span-101))
	}

	st := tiered.CacheStats()
	if st.Spills == 0 {
		t.Error("working set 10× the RAM budget never spilled")
	}
	if st.DiskHits == 0 {
		t.Error("repeated queries never hit the disk tier")
	}
	if st.DiskBytes < 0 || st.TotalBytes < 0 {
		t.Errorf("accounting went negative: %+v", st)
	}
}

// TestExplainShowsTier: EXPLAIN annotates a CachedScan with the tier its
// entry currently occupies, and a disk hit leaves the entry, and the note,
// where they were.
func TestExplainShowsTier(t *testing.T) {
	path := spillCSV(t, 5000)
	eng := spillEngine(t, path, Config{
		Admission:     "eager",
		Layout:        "columnar",
		CacheCapacity: 20 << 10,
		SpillDir:      filepath.Join(t.TempDir(), "spill"),
	})
	qa := "SELECT SUM(price) FROM big WHERE id BETWEEN 0 AND 499"
	qb := "SELECT SUM(price) FROM big WHERE id BETWEEN 2000 AND 2499"
	if _, err := eng.Query(qa); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(qb); err != nil {
		t.Fatal(err)
	}
	// The two entries exceed the ~one-entry budget, so exactly one of them
	// was demoted to disk; EXPLAIN must annotate each with its tier. (The
	// policy breaks the tie between two never-reused entries either way.)
	explain := func(q string) string {
		t.Helper()
		out, err := eng.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	diskQ := ""
	for _, q := range []string{qa, qb} {
		out := explain(q)
		switch {
		case strings.Contains(out, "tier: disk (projected read)"):
			if diskQ != "" {
				t.Fatalf("both entries on disk:\n%s", out)
			}
			diskQ = q
		case strings.Contains(out, "tier: ram"):
		default:
			t.Fatalf("explain missing tier annotation:\n%s", out)
		}
	}
	if diskQ == "" {
		t.Fatal("no entry was demoted to disk")
	}
	// Executing the spilled query is a disk hit: it reads the file and
	// moves nothing, so the same query is still annotated disk, the other
	// RAM.
	if _, err := eng.Query(diskQ); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{qa, qb} {
		out := explain(q)
		if onDisk := strings.Contains(out, "tier: disk (projected read)"); onDisk != (q == diskQ) {
			t.Errorf("after the disk hit, %q is annotated:\n%s", q, out)
		}
	}
	st := eng.CacheStats()
	if st.Spills == 0 || st.DiskHits == 0 {
		t.Errorf("expected spill + disk hit, got %+v", st)
	}
}

// BenchmarkSpillDiskHit measures a disk-tier hit end to end: two entries
// beside a one-entry RAM budget, queried in turn, so every other query reads
// the two columns it scans from the spilled entry's file.
func BenchmarkSpillDiskHit(b *testing.B) {
	path := spillCSV(b, 20000)
	eng := spillEngine(b, path, Config{
		Admission:     "eager",
		Layout:        "columnar",
		CacheCapacity: 30 << 10,
		SpillDir:      filepath.Join(b.TempDir(), "spill"),
	})
	qa := "SELECT SUM(price), COUNT(*) FROM big WHERE id BETWEEN 0 AND 999"
	qb := "SELECT SUM(price), COUNT(*) FROM big WHERE id BETWEEN 10000 AND 10999"
	for _, q := range []string{qa, qb} {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qa
		if i%2 == 1 {
			q = qb
		}
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := eng.CacheStats()
	b.ReportMetric(float64(st.DiskHits)/float64(b.N), "disk-hits/op")
}

// TestDiskHitResultOutlivesMapping: a disk hit decodes views of its
// entry's spill-file mapping, but the answer it returns holds none of
// them. A flattening hit over strings, ints, floats, NULLs and list
// elements is read — as rows and as a columnar result — after its entry
// was removed by a rewrite of the file, its readers unpinned and its
// mapping released, with faults turned into panics, and it still equals
// the no-cache answer. In the trailing case the file gained orders after
// the spill, and each hit catches up privately: its store is a chain whose
// head views the mapping and whose tail chunk is its own.
func TestDiskHitResultOutlivesMapping(t *testing.T) {
	t.Run("current", func(t *testing.T) { testDiskHitOutlivesMapping(t, false) })
	t.Run("trailing", func(t *testing.T) { testDiskHitOutlivesMapping(t, true) })
}

func testDiskHitOutlivesMapping(t *testing.T, trailing bool) {
	path := filepath.Join(t.TempDir(), "orders.json")
	if err := os.WriteFile(path, []byte(orderLineitems(t, 400)), 0o644); err != nil {
		t.Fatal(err)
	}
	base := store.Mappings()
	open := func(cfg Config) *Engine {
		t.Helper()
		eng, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterJSON("t", path, datagen.OrderLineitemsSchema); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open(Config{
		Admission:     "eager",
		FreshnessMode: "check",
		CacheCapacity: 1, // every payload is evicted, and spilled, at its admission
		SpillDir:      filepath.Join(t.TempDir(), "spill"),
	})
	defer eng.Close()

	q := "SELECT o_orderkey, o_orderpriority, o_totalprice, lineitems.l_linenumber, lineitems.l_extendedprice FROM t WHERE o_orderkey < 300"
	if trailing {
		// A predicate the appended orders pass.
		q = strings.Replace(q, "o_orderkey < 300", "o_orderkey >= 100", 1)
	}
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Spills != 1 || st.DiskEntries != 1 || store.Mappings()-base != 1 {
		t.Fatalf("the entry did not spill: %d spills, %d disk entries, %d mappings", st.Spills, st.DiskEntries, store.Mappings()-base)
	}
	if trailing {
		// Orders 400..419: the generator draws the first 400 as it did.
		all := orderLineitems(t, 420)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(all[len(orderLineitems(t, 400)):]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	nocache := open(Config{Admission: "off"})
	defer nocache.Close()
	want, err := nocache.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := eng.QueryColumnar(q)
	if err != nil {
		t.Fatal(err)
	}
	if hits := eng.CacheStats().DiskHits; hits != 2 {
		t.Fatalf("%d disk hits, want 2", hits)
	}
	if ext := eng.CacheStats().TailExtensions; trailing != (ext == 2) || !trailing && ext != 0 {
		t.Fatalf("%d private catch-ups, trailing %v", ext, trailing)
	}
	if trailing && !slices.ContainsFunc(want.Rows, func(r []any) bool { return r[0].(int64) >= 400 }) {
		t.Fatal("the appended orders add no rows to the answer")
	}

	// A rewrite of the file drops the entry at the next query's
	// revalidation: nothing pins it, so its file and mapping go at once.
	// That query's own entry spills in turn.
	if err := os.WriteFile(path, []byte(orderLineitems(t, 10)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.StaleInvalidations != 1 || st.Spills != 2 || st.DiskEntries != 1 || store.Mappings()-base != 1 {
		t.Fatalf("after the rewrite: %d stale invalidations, %d spills, %d disk entries, %d mappings",
			st.StaleInvalidations, st.Spills, st.DiskEntries, store.Mappings()-base)
	}
	eng.Close()
	if n := store.Mappings() - base; n != 0 {
		t.Fatalf("%d mappings left after Close", n)
	}

	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	if len(want.Rows) == 0 || !reflect.DeepEqual(rows.Rows, want.Rows) {
		t.Fatalf("the disk hit's rows changed after its mapping went:\n  got  %v\n  want %v", rows.Rows, want.Rows)
	}
	var got [][]any
	if err := cols.Store.ScanNested(func(rec value.Value) error {
		got = append(got, toNative(rec.L))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("the disk hit's columnar result changed after its mapping went:\n  got  %v\n  want %v", got, want.Rows)
	}
}
