package recache

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"recache/internal/datagen"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// orderLineitems writes n orders of datagen's orderLineitems schema as
// NDJSON: 0–7 lineitems each, among them null, empty and absent lists,
// absent fields, and lineitems whose keys leave schema order, repeat, or are
// unknown.
func orderLineitems(t *testing.T, n int) string {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"o_orderkey":%d,"o_custkey":%d,"o_totalprice":%d.%02d,"o_orderdate":%d,"o_shippriority":0`,
			i, r.Intn(500), r.Intn(10000), r.Intn(100), r.Intn(1000))
		if r.Intn(8) > 0 {
			fmt.Fprintf(&b, `,"o_orderpriority":"%d-P"`, r.Intn(5))
		}
		switch k := r.Intn(12); k {
		case 0: // absent
		case 1:
			b.WriteString(`,"lineitems":null`)
		case 2:
			b.WriteString(`,"lineitems":[]`)
		default:
			b.WriteString(`,"lineitems":[`)
			for e := 0; e < k-4 || e == 0; e++ {
				if e > 0 {
					b.WriteByte(',')
				}
				q, p, d := r.Intn(50), r.Intn(90000), r.Intn(10)
				switch r.Intn(10) {
				case 0:
					fmt.Fprintf(&b, `{"l_quantity":%d,"x":[1,{"l_tax":2}],"l_partkey":%d,"l_extendedprice":%d.5,"l_discount":0.0%d}`, q, p, p, d)
				case 1:
					fmt.Fprintf(&b, `{"l_partkey":%d,"l_quantity":1,"l_quantity":%d,"l_extendedprice":%d.25,"l_linenumber":%d}`, p, q, p, e)
				default:
					fmt.Fprintf(&b, `{"l_partkey":%d,"l_suppkey":%d,"l_linenumber":%d,"l_quantity":%d,"l_extendedprice":%d.%d,"l_discount":0.0%d,"l_tax":0.0%d,"l_shipdate":%d}`,
						p, p%97, e, q, p, d, d, (d+3)%10, 1000+p%2000)
				}
			}
			b.WriteByte(']')
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// refRow is one flattened row of the reference decode, by leaf name.
type refRow map[string]value.Value

// refRows are the reference's flattened rows (or, for a record-granularity
// query, its records as rows of their non-repeated leaves).
type refRows []refRow

func (rs refRows) where(keep func(refRow) bool) refRows {
	var out refRows
	for _, r := range rs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// num reads a numeric leaf; ok is false for a null.
func (r refRow) num(c string) (float64, bool) { return r[c].AsFloat(), r[c].Kind != value.Null }

// agg folds column c (COUNT(*) when empty) as the engine's aggregates do.
func (rs refRows) agg(fn, c string) any {
	var n int64
	var sum float64
	var best value.Value
	for _, r := range rs {
		if c == "" {
			n++
			continue
		}
		v := r[c]
		if v.Kind == value.Null {
			continue
		}
		if n == 0 || (fn == "min" && v.Compare(best) < 0) || (fn == "max" && v.Compare(best) > 0) {
			best = v
		}
		n++
		sum += v.AsFloat()
	}
	switch {
	case fn == "count":
		return n
	case n == 0:
		return nil
	case fn == "sum":
		return sum
	case fn == "avg":
		return sum / float64(n)
	}
	return toNative([]value.Value{best})[0]
}

// nestedQuery is a query over the orderLineitems table t and its answer from
// the reference rows.
type nestedQuery struct {
	sql  string
	want func(flat, recs refRows) [][]any
}

var nestedQueries = []nestedQuery{
	{"SELECT SUM(lineitems.l_extendedprice), COUNT(*) FROM t WHERE o_totalprice BETWEEN 100 AND 9900",
		func(flat, _ refRows) [][]any {
			rs := flat.where(func(r refRow) bool { p, ok := r.num("o_totalprice"); return ok && p >= 100 && p <= 9900 })
			return [][]any{{rs.agg("sum", "lineitems.l_extendedprice"), rs.agg("count", "")}}
		}},
	{"SELECT SUM(lineitems.l_extendedprice), COUNT(*) FROM t WHERE o_totalprice BETWEEN 2000 AND 5000",
		func(flat, _ refRows) [][]any {
			rs := flat.where(func(r refRow) bool { p, ok := r.num("o_totalprice"); return ok && p >= 2000 && p <= 5000 })
			return [][]any{{rs.agg("sum", "lineitems.l_extendedprice"), rs.agg("count", "")}}
		}},
	{"SELECT MAX(lineitems.l_quantity), AVG(o_totalprice) FROM t WHERE o_orderdate > 300",
		func(flat, _ refRows) [][]any {
			rs := flat.where(func(r refRow) bool { d, ok := r.num("o_orderdate"); return ok && d > 300 })
			return [][]any{{rs.agg("max", "lineitems.l_quantity"), rs.agg("avg", "o_totalprice")}}
		}},
	{"SELECT MIN(lineitems.l_discount), COUNT(*) FROM t WHERE o_custkey < 300 AND lineitems.l_quantity > 20",
		func(flat, _ refRows) [][]any {
			rs := flat.where(func(r refRow) bool {
				c, ok1 := r.num("o_custkey")
				q, ok2 := r.num("lineitems.l_quantity")
				return ok1 && ok2 && c < 300 && q > 20
			})
			return [][]any{{rs.agg("min", "lineitems.l_discount"), rs.agg("count", "")}}
		}},
	{"SELECT o_orderpriority, COUNT(*), SUM(lineitems.l_tax) FROM t WHERE o_totalprice > 2000 GROUP BY o_orderpriority",
		func(flat, _ refRows) [][]any {
			groups := map[string]refRows{}
			for _, r := range flat.where(func(r refRow) bool { p, ok := r.num("o_totalprice"); return ok && p > 2000 }) {
				k := r["o_orderpriority"].String()
				groups[k] = append(groups[k], r)
			}
			var out [][]any
			for _, g := range groups {
				out = append(out, []any{toNative([]value.Value{g[0]["o_orderpriority"]})[0], g.agg("count", ""), g.agg("sum", "lineitems.l_tax")})
			}
			return out
		}},
	{"SELECT o_orderkey, lineitems.l_linenumber, lineitems.l_shipdate FROM t WHERE o_orderkey < 60",
		func(flat, _ refRows) [][]any {
			var out [][]any
			for _, r := range flat.where(func(r refRow) bool { k, _ := r.num("o_orderkey"); return k < 60 }) {
				out = append(out, toNative([]value.Value{r["o_orderkey"], r["lineitems.l_linenumber"], r["lineitems.l_shipdate"]}))
			}
			return out
		}},
	{"SELECT COUNT(*), SUM(o_totalprice) FROM t WHERE o_totalprice > 3000",
		func(_, recs refRows) [][]any {
			rs := recs.where(func(r refRow) bool { p, ok := r.num("o_totalprice"); return ok && p > 3000 })
			return [][]any{{rs.agg("count", ""), rs.agg("sum", "o_totalprice")}}
		}},
}

// nestedReference decodes the file with jsonio.Scan and flattens every
// record with value.FlattenRecord.
func nestedReference(t *testing.T, path string) (flat, recs refRows) {
	t.Helper()
	schema, err := ParseSchema(datagen.OrderLineitemsSchema)
	if err != nil {
		t.Fatal(err)
	}
	p, err := jsonio.New(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := value.LeafColumns(schema)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Scan(nil, func(rec value.Value, _ int64, _ func() error) error {
		r := refRow{}
		for _, c := range cols {
			if !c.Repeated {
				r[c.Name()] = value.Get(rec, schema, c.Path)
			}
		}
		recs = append(recs, r)
		for _, row := range value.FlattenRecord(rec, schema, cols) {
			fr := refRow{}
			for ci, c := range cols {
				fr[c.Name()] = row[ci]
			}
			flat = append(flat, fr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return flat, recs
}

// sameAnswer compares result rows in any order, floats to a relative 1e-9.
func sameAnswer(got, want [][]any) bool {
	if len(got) != len(want) {
		return false
	}
	key := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v", r)
		}
		return out
	}
	g, w := append([][]any(nil), got...), append([][]any(nil), want...)
	gk, wk := key(g), key(w)
	sort.Sort(byKey{g, gk})
	sort.Sort(byKey{w, wk})
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return false
		}
		for j := range g[i] {
			gf, gok := g[i][j].(float64)
			wf, wok := w[i][j].(float64)
			if gok && wok {
				if math.Abs(gf-wf) > 1e-9*math.Max(1, math.Abs(wf)) {
					return false
				}
			} else if g[i][j] != w[i][j] {
				return false
			}
		}
	}
	return true
}

type byKey struct {
	rows [][]any
	keys []string
}

func (b byKey) Len() int           { return len(b.rows) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// TestNestedDifferential: nested queries over a generated orderLineitems
// file answer as the reference decode (jsonio.Scan + value.FlattenRecord)
// does under every admission mode — with a lazy entry's replay, and its
// upgrade — every layout, pushdown on and off, and a provider with the typed
// kernel or without it (the record route), each query three times: a miss,
// then hits, replays or upgrades.
func TestNestedDifferential(t *testing.T) {
	path := writeTemp(t, "orders.json", orderLineitems(t, 2500))
	flat, recs := nestedReference(t, path)
	schema, err := ParseSchema(datagen.OrderLineitemsSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, provider := range []string{"typed", "record"} {
		for _, admission := range []string{"off", "eager", "lazy", "adaptive", "upgrade"} {
			for _, layout := range []string{"parquet", "columnar", "auto"} {
				for _, pushdown := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/%s/pushdown=%v", provider, admission, layout, pushdown)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Admission: admission, Layout: layout, DisablePushdown: !pushdown}
						if admission == "upgrade" {
							// Every sample is over the threshold: entries start
							// lazy, and their first reuse upgrades them.
							cfg = Config{Admission: "adaptive", Layout: layout, DisablePushdown: !pushdown,
								AdmissionSampleSize: 100, AdmissionThreshold: 1e-12}
						}
						eng, err := Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer eng.Close()
						p, err := jsonio.New(path, schema)
						if err != nil {
							t.Fatal(err)
						}
						var prov plan.ScanProvider = p
						if provider == "record" {
							prov = struct{ plan.ScanProvider }{p}
						}
						if err := eng.RegisterProvider("t", plan.FormatJSON, prov); err != nil {
							t.Fatal(err)
						}
						for _, q := range nestedQueries {
							want := q.want(flat, recs)
							for run := 0; run < 3; run++ {
								res, err := eng.Query(q.sql)
								if err != nil {
									t.Fatalf("%s (run %d): %v", q.sql, run, err)
								}
								if !sameAnswer(res.Rows, want) {
									t.Fatalf("%s (run %d):\n got %v\nwant %v", q.sql, run, res.Rows, want)
								}
							}
						}
						s := eng.CacheStats()
						if s.OpenTxns != 0 {
							t.Errorf("OpenTxns = %d", s.OpenTxns)
						}
						switch admission {
						case "lazy":
							if s.ExactHits == 0 {
								t.Error("no lazy entry was replayed")
							}
						case "upgrade":
							if s.LazyUpgrades == 0 {
								t.Error("no lazy entry was upgraded")
							}
						}
					})
				}
			}
		}
	}
}

// bumpingProvider rewrites its file — the same records, one byte later —
// and refreshes to the new epoch when its typed kernel is called the second
// time: a nested miss loses its file between two chunks.
type bumpingProvider struct {
	*jsonio.Provider
	path   string
	calls  atomic.Int32
	bumped atomic.Bool
}

func (p *bumpingProvider) AppendColumns(epoch uint64, offs []int64, dst []*store.Vec, lengths []int32) ([]int32, error) {
	if p.calls.Add(1) == 2 {
		data, err := os.ReadFile(p.path)
		if err == nil {
			err = os.WriteFile(p.path, append([]byte(" "), data...), 0o644)
		}
		if err == nil {
			_, err = p.Refresh()
		}
		if err != nil {
			return lengths, err
		}
		p.bumped.Store(true)
	}
	return p.Provider.AppendColumns(epoch, offs, dst, lengths)
}

// TestNestedMissEpochBump: a rewrite between two chunks of a nested miss
// fails the decode with plan.ErrEpochChanged and the engine retries the
// query: the answer is the file's, under any admission.
func TestNestedMissEpochBump(t *testing.T) {
	schema, err := ParseSchema(datagen.OrderLineitemsSchema)
	if err != nil {
		t.Fatal(err)
	}
	q := nestedQueries[0]
	for _, admission := range []string{"off", "eager", "adaptive"} {
		t.Run(admission, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "orders.json")
			if err := os.WriteFile(path, []byte(orderLineitems(t, 2500)), 0o644); err != nil {
				t.Fatal(err)
			}
			flat, recs := nestedReference(t, path)
			p, err := jsonio.New(path, schema)
			if err != nil {
				t.Fatal(err)
			}
			bp := &bumpingProvider{Provider: p, path: path}
			eng, err := Open(Config{Admission: admission})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.RegisterProvider("t", plan.FormatJSON, bp); err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				res, err := eng.Query(q.sql)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if want := q.want(flat, recs); !sameAnswer(res.Rows, want) {
					t.Fatalf("run %d:\n got %v\nwant %v", run, res.Rows, want)
				}
			}
			if !bp.bumped.Load() {
				t.Fatal("the file was never rewritten between two chunks")
			}
			if s := eng.CacheStats(); s.OpenTxns != 0 {
				t.Errorf("OpenTxns = %d", s.OpenTxns)
			}
		})
	}
}
