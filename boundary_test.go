package recache_test

// The result-boundary differential test: whichever exit the plan root takes
// (column batches or rows), Engine.Query, Engine.QueryColumnar and
// client.Query through an in-process server must deliver the same rows, and
// the result store must serialize to the RCS1 bytes an Add-built store of
// those rows serializes to. Run under -race in CI.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"recache"
	"recache/internal/client"
	"recache/internal/server"
	"recache/internal/store"
	"recache/internal/value"
)

// boundaryRows is the big table's size in the tests: enough for three column
// batches.
const boundaryRows = 2600

// boundaryFixture is one engine, served in process, with a wire client.
type boundaryFixture struct {
	eng *recache.Engine
	cl  *client.Client
}

// startBoundary registers the corpus tables on a fresh engine and serves it
// on a unix socket. b (rows rows) has a NULL price every 7th row and a NULL
// name every 11th; d is a small dimension table keyed on b.qty; ev carries a
// record-typed column.
func startBoundary(t testing.TB, cfg recache.Config, rows int) *boundaryFixture {
	t.Helper()
	eng, err := recache.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var big strings.Builder
	for i := 0; i < rows; i++ {
		price, name := fmt.Sprintf("%d.25", i%500), fmt.Sprintf("n%d", i%13)
		if i%7 == 0 {
			price = ""
		}
		if i%11 == 0 {
			name = ""
		}
		fmt.Fprintf(&big, "%d|%d|%s|%s\n", i, i%100, price, name)
	}
	if err := eng.RegisterCSV("b", write("b.csv", big.String()),
		"id int, qty int, price float, name string", '|'); err != nil {
		t.Fatal(err)
	}
	var dim strings.Builder
	for k := 0; k < 50; k++ {
		fmt.Fprintf(&dim, "%d|label%d\n", k, k)
	}
	if err := eng.RegisterCSV("d", write("d.csv", dim.String()), "dk int, label string", '|'); err != nil {
		t.Fatal(err)
	}
	ev := `{"k":1,"origin":{"country":"ch","ip":"1.1"}}
{"k":2,"origin":{"country":"gr"}}
{"k":3,"origin":{"ip":"3.3"}}
`
	if err := eng.RegisterJSON("ev", write("ev.json", ev),
		"k int, origin record(country string?, ip string?)"); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("unix", filepath.Join(dir, "recached.sock"))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := client.Dial("unix:"+ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Shutdown()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
		eng.Close()
	})
	return &boundaryFixture{eng: eng, cl: cl}
}

func boxValue(v value.Value) any {
	switch v.Kind {
	case value.Int:
		return v.I
	case value.Float:
		return v.F
	case value.String:
		return v.S
	case value.Bool:
		return v.B
	case value.Null:
		return nil
	}
	return v.String()
}

// sameRows compares two row sets, treating nil and empty alike.
func sameRows(a, b [][]any) bool {
	return (len(a) == 0 && len(b) == 0) || reflect.DeepEqual(a, b)
}

// consumers runs sql through the three result consumers and returns their
// rows plus the engine-side stats; it fails the test on any disagreement
// between them, or between the result store's RCS1 bytes and those of a
// store rebuilt from its records with Builder.Add.
func (fx *boundaryFixture) consumers(t testing.TB, sql string) (rows [][]any, query, columnar recache.QueryStats) {
	t.Helper()
	q, err := fx.eng.Query(sql)
	if err != nil {
		t.Fatalf("%s: Query: %v", sql, err)
	}
	br, err := fx.eng.QueryColumnar(sql)
	if err != nil {
		t.Fatalf("%s: QueryColumnar: %v", sql, err)
	}
	cr, err := fx.cl.Query(sql)
	if err != nil {
		t.Fatalf("%s: client.Query: %v", sql, err)
	}
	if !reflect.DeepEqual(q.Columns, br.Columns) || !reflect.DeepEqual(q.Columns, cr.Columns) {
		t.Fatalf("%s: columns %v / %v / %v", sql, q.Columns, br.Columns, cr.Columns)
	}

	var storeRows [][]any
	rebuilt, err := store.NewBuilder(store.LayoutParquet, br.Schema)
	if err != nil {
		t.Fatal(err)
	}
	err = br.Store.ScanNested(func(rec value.Value) error {
		row := make([]any, len(rec.L))
		for i, v := range rec.L {
			row[i] = boxValue(v)
		}
		storeRows = append(storeRows, row)
		return rebuilt.Add(rec)
	})
	if err != nil {
		t.Fatalf("%s: scan result store: %v", sql, err)
	}
	if !sameRows(q.Rows, storeRows) {
		t.Fatalf("%s: Query rows differ from QueryColumnar store rows\n%v\n%v", sql, q.Rows, storeRows)
	}
	if !sameRows(q.Rows, cr.Rows) {
		t.Fatalf("%s: Query rows differ from client.Query rows\n%v\n%v", sql, q.Rows, cr.Rows)
	}
	if q.Stats.Rows != len(q.Rows) || br.Stats.Rows != len(q.Rows) {
		t.Fatalf("%s: stats rows %d / %d, want %d", sql, q.Stats.Rows, br.Stats.Rows, len(q.Rows))
	}
	var got, want bytes.Buffer
	if err := store.WriteParquet(&got, br.Store); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteParquet(&want, rebuilt.Finish()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: result store RCS1 bytes differ from the Add-built store's (%d vs %d bytes)",
			sql, got.Len(), want.Len())
	}
	return q.Rows, q.Stats, br.Stats
}

func TestResultBoundaryDifferential(t *testing.T) {
	oracle := startBoundary(t, recache.Config{Admission: "off"}, boundaryRows)
	fx := startBoundary(t, recache.Config{Admission: "eager"}, boundaryRows)
	rowFx := startBoundary(t, recache.Config{Admission: "eager", DisableVectorized: true}, boundaryRows)

	cases := []struct {
		name  string
		warm  string // run once first (admits the entry the case hits)
		sql   string
		batch bool // the hit leaves through the batch exit with ≥ 1 batch
		rows  int  // expected row count; -1 = whatever the oracle says
	}{
		{name: "projection with NULLs",
			sql: "SELECT id, price, name FROM b WHERE qty BETWEEN 10 AND 60", batch: true, rows: -1},
		{name: "empty result",
			sql: "SELECT id, name FROM b WHERE qty > 1000", rows: 0},
		{name: "subsumed hit, residual leaves gaps in the selection",
			warm: "SELECT id, qty, name FROM b WHERE qty BETWEEN 5 AND 70",
			sql:  "SELECT name, id FROM b WHERE qty BETWEEN 20 AND 30", batch: true, rows: -1},
		{name: "join projection",
			sql: "SELECT id, label, price FROM b JOIN d ON qty = dk WHERE qty BETWEEN 10 AND 20", batch: true, rows: -1},
		{name: "1023 rows", sql: "SELECT id, name FROM b WHERE id < 1023", batch: true, rows: 1023},
		{name: "1024 rows", sql: "SELECT id, name FROM b WHERE id < 1024", batch: true, rows: 1024},
		{name: "1025 rows", sql: "SELECT id, name FROM b WHERE id < 1025", batch: true, rows: 1025},
		{name: "aggregate root keeps the row sink",
			sql: "SELECT name, COUNT(*), SUM(price) FROM b WHERE qty < 50 GROUP BY name", rows: 14},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _, _ := oracle.consumers(t, c.sql)
			if c.rows >= 0 && len(want) != c.rows {
				t.Fatalf("oracle returned %d rows, want %d", len(want), c.rows)
			}
			warm := c.warm
			if warm == "" {
				warm = c.sql
			}
			if _, err := fx.eng.Query(warm); err != nil {
				t.Fatal(err)
			}
			before := fx.eng.CacheStats()
			got, qs, cs := fx.consumers(t, c.sql)
			if !sameRows(got, want) {
				t.Fatalf("cached rows differ from the no-cache oracle's\n%v\n%v", got, want)
			}
			after := fx.eng.CacheStats()
			if after.Misses != before.Misses {
				t.Fatalf("the case was meant to hit: misses %d → %d", before.Misses, after.Misses)
			}
			if c.batch != (qs.ResultBatches > 0) || c.batch != (cs.ResultBatches > 0) {
				t.Errorf("ResultBatches = %d (Query) / %d (QueryColumnar), want batch exit %v",
					qs.ResultBatches, cs.ResultBatches, c.batch)
			}
			plan, err := fx.eng.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			// EXPLAIN reports the exit the root would take; an empty result
			// takes the batch exit too, it just hands over no batch.
			wantNote := "result: row"
			if c.batch || c.rows == 0 {
				wantNote = "result: batch"
			}
			if first, _, _ := strings.Cut(plan, "\n"); !strings.Contains(first, wantNote) {
				t.Errorf("EXPLAIN root line %q lacks %q", first, wantNote)
			}

			// The same hit with vectorization off: row sink, same rows.
			if _, err := rowFx.eng.Query(warm); err != nil {
				t.Fatal(err)
			}
			got, qs, cs = rowFx.consumers(t, c.sql)
			if !sameRows(got, want) {
				t.Fatalf("DisableVectorized rows differ from the oracle's\n%v\n%v", got, want)
			}
			if qs.ResultBatches != 0 || cs.ResultBatches != 0 {
				t.Errorf("DisableVectorized: ResultBatches = %d / %d, want 0", qs.ResultBatches, cs.ResultBatches)
			}
		})
	}

	// A record-typed output column sends the client down its ScanNested
	// fallback. (SQL cannot project a list — a list column is always
	// unnested.) A record column resolves only against a raw scan, so the
	// cached engine declines the rewrite: every repeat, through every
	// consumer, is the raw scan's answer.
	t.Run("record-typed output column", func(t *testing.T) {
		want := [][]any{{int64(2), `{"gr",null}`}, {int64(3), `{null,"3.3"}`}}
		for i := 0; i < 4; i++ {
			rows, qs, _ := fx.consumers(t, "SELECT k, origin FROM ev WHERE k >= 2")
			if !reflect.DeepEqual(rows, want) {
				t.Fatalf("run %d: rows = %v, want %v", i, rows, want)
			}
			if qs.ResultBatches != 0 {
				t.Errorf("run %d: ResultBatches = %d on a raw scan, want 0", i, qs.ResultBatches)
			}
		}
	})

	// /stats answers "did this daemon's projections take the fast exit".
	st, err := fx.cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.BatchResults != 6 || st.Server.RowResults != 6 {
		t.Errorf("server counted %d batch / %d row results, want 6 / 6",
			st.Server.BatchResults, st.Server.RowResults)
	}
	st, err = rowFx.cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.BatchResults != 0 || st.Server.RowResults != 8 {
		t.Errorf("DisableVectorized server counted %d batch / %d row results, want 0 / 8",
			st.Server.BatchResults, st.Server.RowResults)
	}
}

// TestResultBoundaryUnderEviction runs the three consumers of a projection
// hit while a budget of about one entry keeps evicting the entry they read:
// the sinks gather the borrowed vectors before the query's transaction
// closes, so every result — including rows checked again after the entry is
// long gone — equals the no-cache answer.
func TestResultBoundaryUnderEviction(t *testing.T) {
	oracle := startBoundary(t, recache.Config{Admission: "off"}, boundaryRows)
	const sql = "SELECT id, price, name FROM b WHERE qty BETWEEN 10 AND 60"
	want, _, _ := oracle.consumers(t, sql)

	fx := startBoundary(t, recache.Config{Admission: "eager", CacheCapacity: 120 << 10}, boundaryRows)
	const readers, evictors, iters = 3, 2, 15
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < evictors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (g*37 + i*13) % 60
				q := fmt.Sprintf("SELECT COUNT(*), SUM(price) FROM b WHERE qty BETWEEN %d AND %d", lo, lo+35)
				if _, err := fx.eng.Query(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	kept := make([][][]any, readers)
	var rwg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			for i := 0; i < iters && !t.Failed(); i++ {
				q, err := fx.eng.Query(sql)
				if err != nil {
					t.Error(err)
					return
				}
				br, err := fx.eng.QueryColumnar(sql)
				if err != nil {
					t.Error(err)
					return
				}
				cr, err := fx.cl.Query(sql)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameRows(q.Rows, want) || !sameRows(cr.Rows, want) || br.Store.NumRecords() != len(want) {
					t.Errorf("reader %d iteration %d: a consumer disagrees with the oracle", g, i)
					return
				}
				kept[g] = q.Rows
			}
		}(g)
	}
	rwg.Wait()
	close(stop)
	wg.Wait()
	for g, rows := range kept {
		if rows != nil && !sameRows(rows, want) {
			t.Errorf("reader %d: rows changed after their entry was evicted", g)
		}
	}
	st := fx.eng.CacheStats()
	if st.Evictions == 0 {
		t.Error("no evictions: the budget is too large for the test")
	}
	if st.OpenTxns != 0 {
		t.Errorf("OpenTxns = %d at quiescence, want 0", st.OpenTxns)
	}
}
