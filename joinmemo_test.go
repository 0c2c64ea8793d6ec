package recache

import (
	"reflect"
	"testing"
)

// joinTables returns the join tables memoised on each live entry of table,
// by predicate.
func joinTables(eng *Engine, table string) map[string]int {
	out := map[string]int{}
	for _, v := range eng.Manager().Snapshot() {
		if v.Dataset == table {
			out[v.PredCanon] = v.JoinTables
		}
	}
	return out
}

// checkRef runs sql on eng and compares it with the reference evaluator.
func checkRef(t *testing.T, eng *Engine, sql string) {
	t.Helper()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want := refQuery(t, eng, sql); !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("%q: %v, want %v", sql, res.Rows, want)
	}
}

// TestJoinTableMemo: a join whose build side is an exact hit reading an
// eager entry whole memoises its hash table on that entry, and every later
// answer is still the reference evaluator's: on repeated hits, with one
// entry building on two key columns, beside a subsumed hit (which filters
// its build side, so its table is never memoised), and after an append,
// whose extension replaces the payload and with it the table.
func TestJoinTableMemo(t *testing.T) {
	cfgs := []Config{{Admission: "eager", Layout: "columnar"}, {Admission: "eager", Layout: "parquet"}}
	t.Run("repeated-hit", func(t *testing.T) {
		for _, cfg := range cfgs {
			eng := joinTestEngine(t, cfg)
			q := "SELECT COUNT(*), SUM(lv), SUM(rv) FROM tjl JOIN tjr ON lk = rk"
			for i := 0; i < 4; i++ {
				checkRef(t, eng, q)
			}
			if got := joinTables(eng, "tjl"); got["true"] != 1 {
				t.Errorf("%+v: build entry memoises %v tables, want 1", cfg, got)
			}
			if got := joinTables(eng, "tjr"); got["true"] != 0 {
				t.Errorf("%+v: the probe side memoised %v", cfg, got)
			}
		}
	})
	t.Run("two-key-columns", func(t *testing.T) {
		for _, cfg := range cfgs {
			eng := joinTestEngine(t, cfg)
			qs := []string{
				"SELECT COUNT(*), SUM(lv), SUM(rv) FROM tjl JOIN tjr ON lk = rk",
				"SELECT COUNT(*), SUM(lv), SUM(rv) FROM tjl JOIN tjr ON lf = rf",
				"SELECT lv, rv FROM tjl JOIN tjr ON ls = rs",
				"SELECT COUNT(*), SUM(lv) FROM tjl JOIN tjr ON lk = rf",
			}
			for i := 0; i < 3; i++ {
				for _, q := range qs {
					checkRef(t, eng, q)
				}
			}
			// lk = rk and lk = rf key the same column under the int and
			// float modes: two tables.
			if got := joinTables(eng, "tjl"); got["true"] != 4 {
				t.Errorf("%+v: build entry memoises %v tables, want 4", cfg, got)
			}
		}
	})
	t.Run("subsumed-hit", func(t *testing.T) {
		for _, cfg := range cfgs {
			eng := joinTestEngine(t, cfg)
			wide := "SELECT COUNT(*), SUM(rv) FROM tjl JOIN tjr ON lk = rk WHERE lv BETWEEN 10 AND 70"
			narrow := "SELECT COUNT(*), SUM(rv) FROM tjl JOIN tjr ON lk = rk WHERE lv BETWEEN 20 AND 60"
			canon := "((10<=lv) AND (70>=lv))"
			checkRef(t, eng, wide) // the miss builds the entry
			hits := eng.CacheStats().SubsumedHits
			for i := 0; i < 3; i++ {
				checkRef(t, eng, narrow)
			}
			if got := eng.CacheStats().SubsumedHits - hits; got != 3 {
				t.Fatalf("%+v: %d subsumed hits, want 3", cfg, got)
			}
			if got := joinTables(eng, "tjl"); got[canon] != 0 || len(got) != 1 {
				t.Errorf("%+v: a subsumed build side memoised its table: %v", cfg, got)
			}
			checkRef(t, eng, wide)
			checkRef(t, eng, narrow)
			if got := joinTables(eng, "tjl"); got[canon] != 1 {
				t.Errorf("%+v: the exact hit memoises %v tables, want 1", cfg, got)
			}
		}
	})
	t.Run("append", func(t *testing.T) {
		path := freshCSV(t, 50)
		eng := freshEngine(t, path, Config{Admission: "eager", FreshnessMode: "check"})
		if err := eng.RegisterCSV("p", writeTemp(t, "probe.csv", "3|5\n10|6\n55|7\n60|8\n99|9\n"), "pk int, pv int", '|'); err != nil {
			t.Fatal(err)
		}
		q := "SELECT id, price, pv FROM g JOIN p ON id = pk"
		for i := 0; i < 3; i++ {
			checkRef(t, eng, q)
		}
		if got := joinTables(eng, "g"); got["true"] != 1 {
			t.Fatalf("build entry memoises %v tables, want 1", got)
		}
		appendRows(t, path, 50, 70)
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Errorf("after the append: %v, want the rows of keys 3, 10, 55 and 60", res.Rows)
		}
		checkRef(t, eng, q)
		if s := eng.CacheStats(); s.TailExtensions != 1 || s.StaleInvalidations != 0 {
			t.Errorf("the entry should have been extended once: %+v", s)
		}
		if got := joinTables(eng, "g"); got["true"] != 1 {
			t.Errorf("the extended entry memoises %v tables, want 1", got)
		}
	})
}
