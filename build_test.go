package recache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"recache/internal/rawfile/rawfiletest"
)

// buildTable is one dataset of the build-path tests: three records whose
// middle one holds a malformed field, in each raw format. sum is the column
// the queries that never name that field add up (a when empty), over the
// records with a > 0, a > 0 again, and a > 1: wants; bad is a column of the
// malformed field, and field the top-level field its error names.
type buildTable struct {
	name       string
	register   func(eng *Engine, path string) error
	file       string
	data       string
	sum        string
	wants      [3]float64
	bad, field string
}

var malformedTables = []buildTable{
	{
		name: "csv", file: "t.csv",
		data: "1|2|3\n4|x5|6\n7|8|9",
		register: func(eng *Engine, path string) error {
			return eng.RegisterCSV("t", path, "a int, b int, c int", '|')
		},
		sum: "a", wants: [3]float64{12, 12, 11}, bad: "b", field: "b",
	},
	{
		name: "json", file: "t.json",
		data: `{"a":1,"b":2,"c":3}` + "\n" + `{"a":4,"b":"x5","c":6}` + "\n" + `{"a":7,"b":8,"c":9}`,
		register: func(eng *Engine, path string) error {
			return eng.RegisterJSON("t", path, "a int, b int, c int")
		},
		sum: "a", wants: [3]float64{12, 12, 11}, bad: "b", field: "b",
	},
	{
		// A nested record, whose build decodes its list too.
		name: "nested-json", file: "t.json",
		data: `{"a":1,"b":2,"l":[{"q":1}]}` + "\n" + `{"a":4,"b":"x5","l":[]}` + "\n" + `{"a":7,"b":8,"l":[{"q":2},{"q":3}]}`,
		register: func(eng *Engine, path string) error {
			return eng.RegisterJSON("t", path, "a int, b int, l list(q int)")
		},
		sum: "a", wants: [3]float64{12, 12, 11}, bad: "b", field: "b",
	},
	{
		// A malformed list element field under an unnesting query: the
		// query decodes only the element field it names.
		name: "nested-element", file: "t.json",
		data: `{"a":1,"l":[{"q":1,"r":1}]}` + "\n" + `{"a":4,"l":[{"q":2,"r":"x5"}]}` + "\n" + `{"a":7,"l":[{"r":3,"q":3}]}`,
		register: func(eng *Engine, path string) error {
			return eng.RegisterJSON("t", path, "a int, l list(q int, r int)")
		},
		sum: "l.q", wants: [3]float64{6, 6, 5}, bad: "l.r", field: "l",
	},
}

func openTable(t *testing.T, cfg Config, tbl buildTable) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := tbl.register(eng, writeTemp(t, tbl.file, tbl.data)); err != nil {
		t.Fatal(err)
	}
	return eng
}

func sumOf(t *testing.T, eng *Engine, sql string) float64 {
	t.Helper()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if s := eng.CacheStats(); s.OpenTxns != 0 {
		t.Fatalf("%s: OpenTxns = %d after the query", sql, s.OpenTxns)
	}
	return res.Rows[0][0].(float64)
}

// TestMalformedUnneededFieldLeavesAnswerAlone: a cache must not fail a
// query the no-cache engine answers. A malformed field the query never
// names — a top-level one, or a list element's under an unnesting query —
// is only ever decoded by an eager build, so it costs the build (abandoned:
// nothing admitted, slot released) and never the answer — on the first
// scan, on the mapped scan, and on a lazy entry's upgrade. A query that
// does name the field fails under every admission mode. Neither answer
// depends on which other queries miss at the same time: fired together
// from a start barrier, every query still scans the file with its own
// field mask.
func TestMalformedUnneededFieldLeavesAnswerAlone(t *testing.T) {
	for _, tbl := range malformedTables {
		for _, admission := range []string{"off", "lazy", "eager", ""} {
			t.Run(tbl.name+"/admission="+admission, func(t *testing.T) {
				eng := openTable(t, Config{Admission: admission}, tbl)
				// First scan, then the same build again (the slot must be
				// free), then a different predicate over the mapped file.
				for i, bound := range []int{0, 0, 1} {
					sql := fmt.Sprintf("SELECT SUM(%s) FROM t WHERE a > %d", tbl.sum, bound)
					if got := sumOf(t, eng, sql); got != tbl.wants[i] {
						t.Fatalf("%s = %v, want %v", sql, got, tbl.wants[i])
					}
				}
				for _, e := range eng.CacheEntries() {
					if e.Mode != "lazy" {
						t.Errorf("admitted %s entry %q over a record that does not decode", e.Mode, e.Predicate)
					}
				}
				if s := eng.CacheStats(); admission != "lazy" && s.Inserted != 0 {
					t.Errorf("Inserted = %d, want 0: every build met the malformed record", s.Inserted)
				}
				bad := "SELECT SUM(" + tbl.bad + ") FROM t"
				if _, err := eng.Query(bad); err == nil || !strings.Contains(err.Error(), `field "`+tbl.field+`"`) {
					t.Errorf("%s: err = %v, want the field error", bad, err)
				}
				for round := 0; round < 5; round++ {
					concurrentMalformedRound(t, openTable(t, Config{Admission: admission}, tbl), tbl)
				}
			})
		}
		t.Run(tbl.name+"/sample", func(t *testing.T) {
			// Adaptive admission over more passing records than a
			// two-record sample that holds the malformed one: the sample's
			// build fails, so nothing is decided and nothing admitted.
			eng := openTable(t, Config{AdmissionSampleSize: 2}, tbl)
			for i, bound := range []int{0, 0, 1} {
				sql := fmt.Sprintf("SELECT SUM(%s) FROM t WHERE a > %d", tbl.sum, bound)
				if got := sumOf(t, eng, sql); got != tbl.wants[i] {
					t.Fatalf("%s = %v, want %v", sql, got, tbl.wants[i])
				}
			}
			if entries := eng.CacheEntries(); len(entries) != 0 {
				t.Errorf("entries = %+v, want none", entries)
			}
			if s := eng.CacheStats(); s.Inserted != 0 {
				t.Errorf("Inserted = %d, want 0: every sample met the malformed record", s.Inserted)
			}
		})
		t.Run(tbl.name+"/upgrade", func(t *testing.T) {
			// A one-record sample (the first record decodes) against a
			// threshold nothing meets: admitted lazy, offsets only.
			eng := openTable(t, Config{AdmissionSampleSize: 1, AdmissionThreshold: 1e-12}, tbl)
			const sql = "SELECT SUM(a) FROM t WHERE a > 0"
			for i := 0; i < 3; i++ { // miss, then two replays that each try the upgrade
				if got := sumOf(t, eng, sql); got != 12 {
					t.Fatalf("run %d: %s = %v, want 12", i, sql, got)
				}
			}
			entries := eng.CacheEntries()
			if len(entries) != 1 || entries[0].Mode != "lazy" {
				t.Fatalf("entries = %+v, want the one lazy entry", entries)
			}
			if s := eng.CacheStats(); s.LazyUpgrades != 0 || s.ExactHits != 2 {
				t.Errorf("LazyUpgrades = %d, ExactHits = %d, want 0 and 2", s.LazyUpgrades, s.ExactHits)
			}
		})
	}
}

// concurrentMalformedRound fires tbl's bad query and its three good queries
// at a cold engine together and checks every answer.
func concurrentMalformedRound(t *testing.T, eng *Engine, tbl buildTable) {
	t.Helper()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, bound := range []int{0, 0, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sql := fmt.Sprintf("SELECT SUM(%s) FROM t WHERE a > %d", tbl.sum, bound)
			res, err := eng.Query(sql)
			if err != nil {
				t.Errorf("concurrent %s: %v", sql, err)
				return
			}
			if got := res.Rows[0][0].(float64); got != tbl.wants[i] {
				t.Errorf("concurrent %s = %v, want %v", sql, got, tbl.wants[i])
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		bad := "SELECT SUM(" + tbl.bad + ") FROM t"
		if _, err := eng.Query(bad); err == nil || !strings.Contains(err.Error(), `field "`+tbl.field+`"`) {
			t.Errorf("concurrent %s: err = %v, want the field error", bad, err)
		}
	}()
	close(start)
	wg.Wait()
	if s := eng.CacheStats(); s.OpenTxns != 0 {
		t.Errorf("OpenTxns = %d after the round", s.OpenTxns)
	}
}

// TestEagerMissAllocBudget is the miss-overhead contract as a count, for
// three first touches — an aggregate, a GROUP BY and a two-table join. With
// caching off each allocates per chunk, not per record: the raw chunks are
// decoded into reused vectors and run through the batch operators, with no
// boxed row, group key or join key per record. A first touch that admits
// every record eagerly allocates per query, not per record, beyond that:
// the build decodes the chunks into its own column vectors, which the query
// then reads, with no closure, boxed row or flattened copy per admitted
// record.
func TestEagerMissAllocBudget(t *testing.T) {
	if rawfiletest.Race {
		t.Skip("the race detector allocates")
	}
	const records = 20000
	var csv, json strings.Builder
	for i := 0; i < records; i++ {
		fmt.Fprintf(&csv, "%d|%d|%d.25|%d\n", i, i%7, i%97, i%3)
		fmt.Fprintf(&json, `{"a":%d,"b":%d,"c":%d.25,"d":%d}`+"\n", i, i%7, i%97, i%3)
	}
	var u strings.Builder
	for i := 0; i < records/10; i++ {
		fmt.Fprintf(&u, "%d|%d\n", 10*i, i)
	}
	dim := writeTemp(t, "u.csv", u.String())
	registerDim := func(eng *Engine) error { return eng.RegisterCSV("u", dim, "k int, w int", '|') }
	for _, tbl := range []buildTable{
		{name: "csv", file: "t.csv", data: csv.String(), register: func(eng *Engine, path string) error {
			if err := registerDim(eng); err != nil {
				return err
			}
			return eng.RegisterCSV("t", path, "a int, b int, c float, d int", '|')
		}},
		{name: "json", file: "t.json", data: json.String(), register: func(eng *Engine, path string) error {
			if err := registerDim(eng); err != nil {
				return err
			}
			return eng.RegisterJSON("t", path, "a int, b int, c float, d int")
		}},
	} {
		t.Run(tbl.name, func(t *testing.T) {
			for _, q := range []struct {
				name, sql string
				tables    int
			}{
				{"aggregate", "SELECT SUM(c) FROM t WHERE a >= 0", 1},
				{"group-by", "SELECT d, SUM(c) FROM t WHERE a >= 0 GROUP BY d", 1},
				{"join", "SELECT COUNT(*), SUM(w) FROM t JOIN u ON a = k WHERE a >= 0", 2},
			} {
				// mallocs is the allocation count of the first query of a
				// fresh engine; the least of a few runs sheds the runtime's
				// own noise.
				mallocs := func(admission string) uint64 {
					least := ^uint64(0)
					for run := 0; run < 3; run++ {
						eng := openTable(t, Config{Admission: admission}, tbl)
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						res, err := eng.Query(q.sql)
						runtime.ReadMemStats(&after)
						if err != nil || len(res.Rows) == 0 {
							t.Fatalf("%s: %v rows, %v", q.sql, res, err)
						}
						if admission == "eager" {
							e := eng.CacheEntries()
							if len(e) != q.tables {
								t.Fatalf("%s: entries = %+v, want %d eager", q.name, e, q.tables)
							}
							for _, x := range e {
								if x.Mode != "eager" {
									t.Fatalf("%s: entries = %+v, want %d eager", q.name, e, q.tables)
								}
							}
						}
						least = min(least, after.Mallocs-before.Mallocs)
					}
					return least
				}
				off, eager := mallocs("off"), mallocs("eager")
				if off > records/10 {
					t.Errorf("%s: caching off allocates %d objects for %d records: per record, not per chunk", q.name, off, records)
				}
				if extra := float64(eager) - float64(off); extra > 0.1*records {
					t.Errorf("%s: eager first touch allocates %d objects, caching off %d: %.2f extra per admitted record, want < 0.1",
						q.name, eager, off, extra/records)
				}
			}
		})
	}
}

// TestNestedMissAllocs is the nested miss path's allocation budget: a
// first-touch unnesting query decodes its chunks into reused leaf vectors
// and expands them without boxing a record, so with caching off it
// allocates per chunk, not per record or list element, and an eager build
// — which adopts the vectors it decodes into — adds fewer than 0.1 objects
// per admitted record.
func TestNestedMissAllocs(t *testing.T) {
	if rawfiletest.Race {
		t.Skip("the race detector allocates")
	}
	const records = 20000
	var data strings.Builder
	for i := 0; i < records; i++ {
		fmt.Fprintf(&data, `{"a":%d,"b":%d.5,"l":[`, i, i%97)
		for e := 0; e < i%5; e++ {
			if e > 0 {
				data.WriteByte(',')
			}
			fmt.Fprintf(&data, `{"q":%d,"p":%d.25}`, e, i%13)
		}
		data.WriteString("]}\n")
	}
	tbl := buildTable{name: "nested", file: "t.json", data: data.String(), register: func(eng *Engine, path string) error {
		return eng.RegisterJSON("t", path, "a int, b float, l list(q int, p float)")
	}}
	mallocs := func(admission string) uint64 {
		least := ^uint64(0)
		for run := 0; run < 3; run++ {
			eng := openTable(t, Config{Admission: admission}, tbl)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := sumOf(t, eng, "SELECT SUM(l.p) FROM t WHERE a >= 0")
			runtime.ReadMemStats(&after)
			if got == 0 {
				t.Fatal("empty answer")
			}
			if admission == "eager" {
				if e := eng.CacheEntries(); len(e) != 1 || e[0].Mode != "eager" {
					t.Fatalf("entries = %+v, want the one eager entry", e)
				}
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	off, eager := mallocs("off"), mallocs("eager")
	if off > records/10 {
		t.Errorf("caching off allocates %d objects for %d records: per record, not per chunk", off, records)
	}
	if extra := float64(eager) - float64(off); extra > 0.1*records {
		t.Errorf("eager first touch allocates %d objects, caching off %d: %.2f extra per admitted record, want < 0.1",
			eager, off, extra/records)
	}
}
