package recache

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"recache/internal/jsonio"
	"recache/internal/value"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	csv := "1|10|1.5|aa\n2|20|2.5|bb\n3|30|3.5|cc\n4|40|4.5|dd\n5|50|5.5|ee\n"
	err = eng.RegisterCSV("t", writeTemp(t, "t.csv", csv),
		"id int, qty int, price float, name string", '|')
	if err != nil {
		t.Fatal(err)
	}
	njson := `{"okey":1,"total":100,"items":[{"qty":1,"price":10},{"qty":2,"price":20}]}
{"okey":2,"total":200,"items":[{"qty":3,"price":30}]}
{"okey":3,"total":300,"items":[]}
{"okey":4,"total":400,"items":[{"qty":4,"price":40},{"qty":5,"price":50},{"qty":6,"price":60}]}
`
	err = eng.RegisterJSON("orders", writeTemp(t, "orders.json", njson),
		"okey int, total float, items list(qty int, price float)")
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestQuerySimpleAggregate(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query("SELECT SUM(price) AS s, COUNT(*) FROM t WHERE qty BETWEEN 20 AND 40")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(float64) != 10.5 || res.Rows[0][1].(int64) != 3 {
		t.Errorf("result = %v", res.Rows[0])
	}
	if res.Columns[0] != "s" || res.Columns[1] != "count" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestQueryNestedAggregate(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query("SELECT SUM(items.price), COUNT(*) FROM orders WHERE items.qty >= 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(float64) != 180 || res.Rows[0][1].(int64) != 4 {
		t.Errorf("result = %v", res.Rows[0])
	}
}

func TestQueryMixedNestedAndFlatPredicates(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query(
		"SELECT COUNT(*) FROM orders WHERE total >= 100 AND items.qty >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 5 {
		t.Errorf("count = %v, want 5", res.Rows[0][0])
	}
}

func TestQueryJoin(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query(
		"SELECT COUNT(*), SUM(price) FROM t JOIN orders ON id = okey WHERE total > 150")
	if err != nil {
		t.Fatal(err)
	}
	// okey 2,3,4 match ids 2,3,4 → prices 2.5+3.5+4.5
	if res.Rows[0][0].(int64) != 3 || res.Rows[0][1].(float64) != 10.5 {
		t.Errorf("join result = %v", res.Rows[0])
	}
}

func TestQueryImplicitJoin(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query(
		"SELECT COUNT(*) FROM t, orders WHERE id = okey AND qty >= 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("implicit join count = %v", res.Rows[0][0])
	}
}

func TestQueryGroupBy(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query("SELECT name, COUNT(*) AS n FROM t GROUP BY name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].(string) != "aa" || res.Rows[0][1].(int64) != 1 {
		t.Errorf("group row = %v", res.Rows[0])
	}
}

func TestQueryProjection(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query("SELECT name, price FROM t WHERE qty > 35")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{"dd", 4.5}, {"ee", 5.5}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCacheHitsAcrossQueries(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	q := "SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45"
	r1, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Errorf("cached result differs")
	}
	st := eng.CacheStats()
	if st.ExactHits != 1 || st.Inserted != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Narrower query: subsumption hit.
	r3, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty BETWEEN 20 AND 30")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Rows[0][0].(int64) != 2 {
		t.Errorf("subsumed count = %v", r3.Rows[0][0])
	}
	if eng.CacheStats().SubsumedHits != 1 {
		t.Errorf("subsumed hits = %d", eng.CacheStats().SubsumedHits)
	}
}

func TestCacheCorrectnessUnderAllConfigs(t *testing.T) {
	// The same random query sequence must produce identical results with
	// caching off, eager, lazy, adaptive — and across layout modes.
	configs := []Config{
		{Admission: "off"},
		{Admission: "eager"},
		{Admission: "lazy"},
		{Admission: "adaptive", AdmissionSampleSize: 2},
		{Admission: "eager", Layout: "parquet"},
		{Admission: "eager", Layout: "columnar"},
	}
	r := rand.New(rand.NewSource(11))
	var queries []string
	for i := 0; i < 25; i++ {
		lo := r.Intn(40)
		hi := lo + r.Intn(30)
		switch r.Intn(3) {
		case 0:
			queries = append(queries, fmt.Sprintf(
				"SELECT SUM(price), COUNT(*) FROM t WHERE qty BETWEEN %d AND %d", lo, hi))
		case 1:
			queries = append(queries, fmt.Sprintf(
				"SELECT SUM(items.price), COUNT(*) FROM orders WHERE items.qty >= %d", r.Intn(6)))
		default:
			queries = append(queries, fmt.Sprintf(
				"SELECT SUM(total), COUNT(*) FROM orders WHERE total <= %d", 100+r.Intn(300)))
		}
	}
	var baseline [][][]any
	for ci, cfg := range configs {
		eng := testEngine(t, cfg)
		var results [][][]any
		for _, q := range queries {
			res, err := eng.Query(q)
			if err != nil {
				t.Fatalf("config %d query %q: %v", ci, q, err)
			}
			results = append(results, res.Rows)
		}
		if ci == 0 {
			baseline = results
			continue
		}
		for qi := range queries {
			if !reflect.DeepEqual(results[qi], baseline[qi]) {
				t.Errorf("config %d (%+v) query %q: %v, want %v",
					ci, cfg, queries[qi], results[qi], baseline[qi])
			}
		}
	}
}

// A projection that names a whole sub-record cannot be served from a cache
// scan's flat leaf columns: the query used to answer once and then fail on
// its own cache entry. It must return the same rows on every repeat, and a
// query over the same table that names only leaves must still hit.
func TestRecordProjectionRepeats(t *testing.T) {
	ev := `{"k":1,"origin":{"country":"ch","ip":"1.1"}}
{"k":2,"origin":{"country":"gr"}}
{"k":3,"origin":{"ip":"3.3"}}
{"k":4}
`
	eng, err := Open(Config{Admission: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RegisterJSON("ev", writeTemp(t, "ev.json", ev),
		"k int, origin record(country string?, ip string?)"); err != nil {
		t.Fatal(err)
	}
	want := [][]any{
		{int64(1), `{"ch","1.1"}`}, {int64(2), `{"gr",null}`},
		{int64(3), `{null,"3.3"}`}, {int64(4), `{null,null}`},
	}
	const sql = "SELECT k, origin FROM ev WHERE k >= 1"
	for i := 0; i < 4; i++ {
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("run %d: rows = %v, want %v", i, res.Rows, want)
		}
	}
	if out, err := eng.Explain(sql); err != nil || strings.Contains(out, "CachedScan") {
		t.Errorf("EXPLAIN promises a cache scan the query cannot use (err=%v):\n%s", err, out)
	}
	const leaves = "SELECT k, origin.country FROM ev WHERE k >= 1"
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(leaves); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.CacheStats(); st.ExactHits != 1 {
		t.Errorf("leaf projection over the same table: %d exact hits, want 1", st.ExactHits)
	}
}

func TestExplainShowsCacheUsage(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	q := "SELECT COUNT(*) FROM t WHERE qty > 25"
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CachedScan") {
		t.Errorf("explain should show CachedScan:\n%s", out)
	}
}

func TestTablesAndSchema(t *testing.T) {
	eng := testEngine(t, Config{})
	tables := eng.Tables()
	if !reflect.DeepEqual(tables, []string{"orders", "t"}) {
		t.Errorf("tables = %v", tables)
	}
	s, err := eng.TableSchema("orders")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "items list(qty int, price float)") {
		t.Errorf("schema = %s", s)
	}
	if _, err := eng.TableSchema("nope"); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestQueryErrors(t *testing.T) {
	eng := testEngine(t, Config{})
	bad := []string{
		"SELECT COUNT(*) FROM missing",
		"SELECT nope FROM t",
		"SELECT COUNT(*) FROM t WHERE nope > 1",
		"SELECT name FROM t GROUP BY qty",  // name not grouped
		"SELECT COUNT(*) FROM t, orders",   // no join condition
		"SELECT COUNT(*) FROM t WHERE qty", // non-boolean predicate is fine? qty is int → error
	}
	for _, q := range bad {
		if _, err := eng.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	eng, _ := Open(Config{})
	if err := eng.RegisterCSV("x", "/does/not/exist.csv", "a int", '|'); err == nil {
		t.Error("missing file should fail")
	}
	csv := writeTemp(t, "a.csv", "1|2\n")
	if err := eng.RegisterCSV("a", csv, "a int, b int", '|'); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("a", csv, "a int, b int", '|'); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := eng.RegisterJSON("j", csv, "not a ( valid schema"); err == nil {
		t.Error("bad schema should fail")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(Config{Eviction: "nope"}); err == nil {
		t.Error("bad eviction name should fail")
	}
	if _, err := Open(Config{Admission: "nope"}); err == nil {
		t.Error("bad admission should fail")
	}
	for _, layout := range []string{"nope", "row"} { // there is no row layout
		if _, err := Open(Config{Layout: layout}); err == nil || !strings.Contains(err.Error(), "unknown layout mode") {
			t.Errorf("Open(Layout: %q) = %v, want the unknown-layout error", layout, err)
		}
	}
	for _, mode := range []string{"nope", "watch"} { // there is no background sweep
		if _, err := Open(Config{FreshnessMode: mode}); err == nil || !strings.Contains(err.Error(), "unknown freshness mode") {
			t.Errorf("Open(FreshnessMode: %q) = %v, want the unknown-mode error", mode, err)
		}
	}
}

func TestInferredCSVSchema(t *testing.T) {
	eng, _ := Open(Config{})
	csv := writeTemp(t, "inf.csv", "7|3.5|hello\n8|4.5|world\n")
	if err := eng.RegisterCSV("inf", csv, "", '|'); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT SUM(c0), MAX(c2) FROM inf WHERE c1 > 4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(float64) != 8 || res.Rows[0][1].(string) != "world" {
		t.Errorf("result = %v", res.Rows[0])
	}
}

func TestParseSchemaRoundTrip(t *testing.T) {
	src := "okey int, total float?, origin record(country string?, ip string), " +
		"items list(qty int, price float?), tags list(string)"
	s, err := ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	formatted := FormatSchema(s)
	s2, err := ParseSchema(formatted)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", formatted, err)
	}
	if !s.Equal(s2) {
		t.Errorf("round trip changed schema:\n%s\n%s", s, s2)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	bad := []string{
		"",
		"a",
		"a unknowntype",
		"a list(",
		"a record(b int",
		"a int extra",
		"a list(b list(c int))", // nested repetition
	}
	for _, src := range bad {
		if _, err := ParseSchema(src); err == nil {
			t.Errorf("ParseSchema(%q) should fail", src)
		}
	}
}

func TestQueryStatsExposed(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE qty > 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Wall <= 0 || res.Stats.Rows != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	entries := eng.CacheEntries()
	if len(entries) != 1 || entries[0].Mode != "eager" || entries[0].Layout != "columnar" {
		t.Errorf("entries = %+v", entries)
	}
}

// Guard against value-model drift: engine results must match a direct
// provider-level computation.
func TestEngineMatchesProviderLevelScan(t *testing.T) {
	eng := testEngine(t, Config{})
	res, err := eng.Query("SELECT SUM(total) FROM orders WHERE total >= 200")
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := ParseSchema("okey int, total float, items list(qty int, price float)")
	p := writeTemp(t, "check.json", `{"okey":2,"total":200,"items":[]}`+"\n")
	prov, err := jsonio.New(p, schema)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	_ = prov.Scan(nil, func(rec value.Value, off int64, _ func() error) error {
		n++
		return nil
	})
	if n != 1 {
		t.Fatalf("provider scan saw %d records", n)
	}
	if res.Rows[0][0].(float64) != 900 {
		t.Errorf("sum = %v, want 900", res.Rows[0][0])
	}
}

// Only nested data has a layout decision (§4.2). Under Layout "auto" a flat
// entry is never converted however often it is hit, on either scan flavor,
// while a nested entry in the same engine, read through its flattened view
// (where Parquet pays record assembly on every scan), still moves to the
// relational columnar layout.
func TestLayoutAdvisorMovesOnlyNestedEntries(t *testing.T) {
	var nested strings.Builder
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&nested, `{"okey":%d,"total":%d,"items":[`, i, i%500)
		for k := 0; k <= i%4; k++ {
			if k > 0 {
				nested.WriteByte(',')
			}
			fmt.Fprintf(&nested, `{"qty":%d,"price":%d}`, k+1, 10*k+i%7)
		}
		nested.WriteString("]}\n")
	}
	layoutOf := func(eng *Engine, table string) string {
		for _, e := range eng.CacheEntries() {
			if e.Table == table {
				return e.Layout
			}
		}
		return "no entry"
	}
	for _, noVec := range []bool{false, true} {
		eng := testEngine(t, Config{Admission: "eager", Layout: "auto", DisableVectorized: noVec})
		err := eng.RegisterJSON("big", writeTemp(t, "big.json", nested.String()),
			"okey int, total float, items list(qty int, price float)")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 51; i++ { // one miss, fifty hits
			if _, err := eng.Query("SELECT id, name FROM t WHERE qty BETWEEN 15 AND 45"); err != nil {
				t.Fatal(err)
			}
		}
		if st := eng.CacheStats(); st.LayoutSwitches != 0 || st.ExactHits != 50 || layoutOf(eng, "t") != "columnar" {
			t.Errorf("DisableVectorized=%v: flat entry after %d hits: %d layout switches, layout %s; want 0, columnar",
				noVec, st.ExactHits, st.LayoutSwitches, layoutOf(eng, "t"))
		}
		if _, err := eng.Query("SELECT SUM(items.price), COUNT(*) FROM big WHERE items.qty >= 0"); err != nil {
			t.Fatal(err)
		}
		if got := layoutOf(eng, "big"); got != "parquet" {
			t.Fatalf("DisableVectorized=%v: nested entry built %s, want parquet", noVec, got)
		}
		for i := 0; i < 500 && eng.CacheStats().LayoutSwitches == 0; i++ {
			if _, err := eng.Query("SELECT SUM(items.price), COUNT(*) FROM big WHERE items.qty >= 0"); err != nil {
				t.Fatal(err)
			}
		}
		if st := eng.CacheStats(); st.LayoutSwitches != 1 || layoutOf(eng, "big") != "columnar" || layoutOf(eng, "t") != "columnar" {
			t.Errorf("DisableVectorized=%v: after flattened-view hits: %d layout switches, nested entry %s, flat entry %s; want 1, columnar, columnar",
				noVec, st.LayoutSwitches, layoutOf(eng, "big"), layoutOf(eng, "t"))
		}
	}
}
