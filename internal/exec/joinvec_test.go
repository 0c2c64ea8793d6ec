package exec

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"recache/internal/cache"
	"recache/internal/csvio"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// --- fixtures: two flat tables crafted for join-key edge cases ---
//
// joinLeft:  dup int keys, +0/-0 float keys, a NaN float key, NULL keys of
// every kind. joinRight mirrors them so every edge has a partner to (not)
// match: NULL never joins, NaN never joins, +0 joins -0, and duplicate
// keys fan out on both sides.

func joinLeftDataset(t *testing.T) *plan.Dataset {
	t.Helper()
	schema := value.TRecord(
		value.F("lk", value.TInt),
		value.F("lf", value.TFloat),
		value.F("ls", value.TString),
		value.F("lv", value.TInt),
	)
	content := "1|1.5|a|10\n" +
		"2|0.0|b|20\n" +
		"2|-0.0|c|30\n" +
		"3|NaN|a|40\n" +
		"|2.5|d|50\n" +
		"5||e|60\n" +
		"7|7.0|b|70\n"
	p := filepath.Join(t.TempDir(), "jl.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	prov, err := csvio.New(p, schema, csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Dataset{Name: "jl", Format: plan.FormatCSV, Provider: prov}
}

func joinRightDataset(t *testing.T) *plan.Dataset {
	t.Helper()
	schema := value.TRecord(
		value.F("rk", value.TInt),
		value.F("rf", value.TFloat),
		value.F("rs", value.TString),
		value.F("rv", value.TInt),
	)
	content := "1|-0.0|a|100\n" +
		"2|0.0|b|200\n" +
		"2|2.5|c|300\n" +
		"|NaN|d|400\n" +
		"4|1.5||500\n" +
		"7|-7.0|e|600\n" +
		"2|1.5|a|700\n"
	p := filepath.Join(t.TempDir(), "jr.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	prov, err := csvio.New(p, schema, csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Dataset{Name: "jr", Format: plan.FormatCSV, Provider: prov}
}

// joinParityPlans is the exec-level join corpus: every key-kind pairing
// (including Int/Float cross-type), NULL and NaN keys on both sides, ±0,
// duplicate-key fanout, an empty build side, and each consumer shape above
// the join (bare rows, Project, Aggregate, GROUP BY, post-join Select).
func joinParityPlans(t *testing.T, jl, jr *plan.Dataset) map[string]func() plan.Node {
	t.Helper()
	mkJoin := func(lkey, rkey string, lpred, rpred expr.Expr) *plan.Join {
		left := &plan.Select{Pred: lpred, Child: &plan.Scan{DS: jl}}
		right := &plan.Select{Pred: rpred, Child: &plan.Scan{DS: jr}}
		j, err := plan.NewJoin(left, right, expr.C(lkey), expr.C(rkey))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	countSum := func(child plan.Node) plan.Node {
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: expr.C("lv"), Name: "sl"},
			{Func: plan.AggSum, Arg: expr.C("rv"), Name: "sr"},
		}, child)
	}
	return map[string]func() plan.Node{
		"int-keys-agg": func() plan.Node {
			return countSum(mkJoin("lk", "rk", nil, nil))
		},
		"int-keys-rows": func() plan.Node {
			// Bare join: row ordering must match across flavors too.
			return mkJoin("lk", "rk", nil, nil)
		},
		"float-keys-zero-nan": func() plan.Node {
			// +0 joins -0; NaN joins nothing.
			return countSum(mkJoin("lf", "rf", nil, nil))
		},
		"cross-int-float": func() plan.Node {
			return countSum(mkJoin("lk", "rf", nil, nil))
		},
		"cross-float-int": func() plan.Node {
			return countSum(mkJoin("lf", "rk", nil, nil))
		},
		"string-keys-fanout": func() plan.Node {
			return countSum(mkJoin("ls", "rs", nil, nil))
		},
		"filtered-sides": func() plan.Node {
			return countSum(mkJoin("lk", "rk",
				expr.Cmp(expr.OpGe, expr.C("lv"), expr.L(20)),
				expr.Cmp(expr.OpLt, expr.C("rv"), expr.L(600))))
		},
		"empty-build-side": func() plan.Node {
			return countSum(mkJoin("lk", "rk",
				expr.Cmp(expr.OpGt, expr.C("lv"), expr.L(1000)), nil))
		},
		"project-over-join": func() plan.Node {
			p, err := plan.NewProject(
				[]expr.Expr{expr.C("rv"), expr.C("ls"), expr.C("lv")},
				[]string{"rv", "ls", "lv"},
				mkJoin("lk", "rk", nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"select-over-join": func() plan.Node {
			// Post-join residue runs as kernels over gathered batches.
			return countSum(&plan.Select{
				Pred:  expr.Cmp(expr.OpGe, expr.C("rv"), expr.L(200)),
				Child: mkJoin("lk", "rk", nil, nil),
			})
		},
		"group-by-over-join": func() plan.Node {
			a, err := plan.NewAggregate(
				[]plan.AggSpec{
					{Func: plan.AggCount, Name: "n"},
					{Func: plan.AggSum, Arg: expr.C("rv"), Name: "sr"},
				},
				[]expr.Expr{expr.C("ls")}, []string{"ls"},
				mkJoin("lk", "rk", nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	}
}

// TestVectorizedJoinMatchesRowPath is the exec-level differential parity
// suite: every corpus plan must produce identical results through the
// batch-native join and the fully row-at-a-time pipeline — across cache
// layouts, on the miss and on hits.
func TestVectorizedJoinMatchesRowPath(t *testing.T) {
	layouts := []cache.LayoutMode{
		cache.LayoutAuto, cache.LayoutFixedColumnar, cache.LayoutFixedParquet,
	}
	for _, layout := range layouts {
		jl, jr := joinLeftDataset(t), joinRightDataset(t)
		plans := joinParityPlans(t, jl, jr)
		needed := map[string][]string{
			"jl": {"lk", "lf", "ls", "lv"},
			"jr": {"rk", "rf", "rs", "rv"},
		}
		mVec := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: layout})
		mRow := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: layout})
		for name, mk := range plans {
			// No-cache baseline, fresh per plan.
			base := run(t, mk(), Deps{})
			for pass := 0; pass < 3; pass++ {
				mVec.BeginQuery()
				rv, _, err := Run(mVec.Rewrite(mk(), needed), Deps{Manager: mVec})
				if err != nil {
					t.Fatalf("layout %v %s pass %d (vec): %v", layout, name, pass, err)
				}
				mRow.BeginQuery()
				rr, _, err := Run(mRow.Rewrite(mk(), needed),
					Deps{Manager: mRow, DisableVectorized: true})
				if err != nil {
					t.Fatalf("layout %v %s pass %d (row): %v", layout, name, pass, err)
				}
				if !reflect.DeepEqual(rv.Rows, base.Rows) {
					t.Errorf("layout %v %s pass %d: vectorized %v != baseline %v",
						layout, name, pass, rv.Rows, base.Rows)
				}
				if !reflect.DeepEqual(rr.Rows, base.Rows) {
					t.Errorf("layout %v %s pass %d: row %v != baseline %v",
						layout, name, pass, rr.Rows, base.Rows)
				}
			}
		}
		if layout == cache.LayoutFixedColumnar && mVec.Stats().VectorizedJoins == 0 {
			t.Error("columnar layout ran zero vectorized joins")
		}
		if got := mRow.Stats().VectorizedJoins; got != 0 {
			t.Errorf("DisableVectorized manager ran %d vectorized joins", got)
		}
	}
}

// TestVectorizedJoinCountersAndAttribution: a hit-serving join must bump
// VectorizedJoins/JoinProbeBatches and still attribute scan time to both
// entries (the probe side's observation carries the join-probe nanos).
func TestVectorizedJoinCountersAndAttribution(t *testing.T) {
	jl, jr := joinLeftDataset(t), joinRightDataset(t)
	needed := map[string][]string{
		"jl": {"lk", "lv"},
		"jr": {"rk", "rv"},
	}
	mk := func() plan.Node {
		left := &plan.Select{Pred: nil, Child: &plan.Scan{DS: jl}}
		right := &plan.Select{Pred: nil, Child: &plan.Scan{DS: jr}}
		j, err := plan.NewJoin(left, right, expr.C("lk"), expr.C("rk"))
		if err != nil {
			t.Fatal(err)
		}
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: expr.C("rv"), Name: "sr"},
		}, j)
	}
	m := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: cache.LayoutFixedColumnar})
	buildAndRun(t, m, mk, needed) // miss: builds both entries, row join
	buildAndRun(t, m, mk, needed) // hit: batch join end to end
	st := m.Stats()
	if st.VectorizedJoins != 1 {
		t.Fatalf("VectorizedJoins = %d, want 1", st.VectorizedJoins)
	}
	if st.JoinProbeBatches < 1 {
		t.Fatalf("JoinProbeBatches = %d, want >= 1", st.JoinProbeBatches)
	}
	entries := m.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	for _, e := range entries {
		if e.ScanNanos <= 0 {
			t.Errorf("entry %d (%s) has no attributed scan time", e.ID, e.Dataset.Name)
		}
	}
}

// TestVectorizedJoinOneSideBatches pins the mixed flavors: under the fixed
// Parquet layout a flattened (unnested) side needs FSM record assembly and
// cannot batch, while the flat side's entry still serves batches — the
// join must cross the batch→row boundary on one side only (typed table
// from batches probed by rows, and the mirror image), match the no-cache
// baseline, and leave the fully-vectorized counter untouched.
func TestVectorizedJoinOneSideBatches(t *testing.T) {
	needed := map[string][]string{
		"jl":     {"lk", "lv"},
		"orders": {"okey", "total"},
	}
	for _, nestedLeft := range []bool{true, false} {
		jl, orders := joinLeftDataset(t), ordersDataset(t)
		mk := func() plan.Node {
			un, err := plan.NewUnnest(&plan.Select{Pred: nil, Child: &plan.Scan{DS: orders}})
			if err != nil {
				t.Fatal(err)
			}
			flat := &plan.Select{Pred: nil, Child: &plan.Scan{DS: jl}}
			var j *plan.Join
			if nestedLeft {
				j, err = plan.NewJoin(un, flat, expr.C("okey"), expr.C("lk"))
			} else {
				j, err = plan.NewJoin(flat, un, expr.C("lk"), expr.C("okey"))
			}
			if err != nil {
				t.Fatal(err)
			}
			return mustAgg(t, []plan.AggSpec{
				{Func: plan.AggCount, Name: "n"},
				{Func: plan.AggSum, Arg: expr.C("total"), Name: "st"},
				{Func: plan.AggSum, Arg: expr.C("lv"), Name: "sl"},
			}, j)
		}
		base := run(t, mk(), Deps{})
		m := mgr(cache.Config{Admission: cache.AlwaysEager, Layout: cache.LayoutFixedParquet})
		buildAndRun(t, m, mk, needed)
		hit := buildAndRun(t, m, mk, needed)
		if !reflect.DeepEqual(hit.Rows, base.Rows) {
			t.Errorf("nestedLeft=%v: mixed join %v, want %v", nestedLeft, hit.Rows, base.Rows)
		}
		if got := m.Stats().VectorizedJoins; got != 0 {
			t.Errorf("nestedLeft=%v: mixed execution counted %d fully vectorized joins",
				nestedLeft, got)
		}
		if got := m.Stats().VectorizedScans; got == 0 {
			t.Errorf("nestedLeft=%v: the flat side should still have served batches", nestedLeft)
		}
	}
}

// TestVectorizedJoinMixedFlavors pins the full degradation: with both
// sides lazy (no store to batch over) every flavor check fails at open and
// the join runs the boxed row path, results unchanged.
func TestVectorizedJoinMixedFlavors(t *testing.T) {
	jl, jr := joinLeftDataset(t), joinRightDataset(t)
	needed := map[string][]string{
		"jl": {"lk", "lv"},
		"jr": {"rk", "rv"},
	}
	mk := func() plan.Node {
		left := &plan.Select{Pred: nil, Child: &plan.Scan{DS: jl}}
		right := &plan.Select{Pred: nil, Child: &plan.Scan{DS: jr}}
		j, err := plan.NewJoin(left, right, expr.C("lk"), expr.C("rk"))
		if err != nil {
			t.Fatal(err)
		}
		return mustAgg(t, []plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: expr.C("lv"), Name: "sl"},
		}, j)
	}
	base := run(t, mk(), Deps{})
	// AlwaysLazy: both entries replay offsets — every flavor check fails at
	// open and the execution degrades through the mixed paths to row.
	m := mgr(cache.Config{Admission: cache.AlwaysLazy})
	r1 := buildAndRun(t, m, mk, needed)
	r2 := buildAndRun(t, m, mk, needed)
	if !reflect.DeepEqual(r1.Rows, base.Rows) || !reflect.DeepEqual(r2.Rows, base.Rows) {
		t.Errorf("lazy-entry join diverged: %v / %v, want %v", r1.Rows, r2.Rows, base.Rows)
	}
	if got := m.Stats().VectorizedJoins; got != 0 {
		t.Errorf("lazy entries ran %d fully vectorized joins", got)
	}
}

// TestJoinTable exercises the typed open-addressing table directly:
// duplicate-key chains keep insertion order across growth, and lookups
// miss cleanly.
func TestJoinTable(t *testing.T) {
	tab := newJoinTable(keyModeInt, 0)
	const n = 1000
	for i := 0; i < n; i++ {
		k, _ := valKey(value.VInt(int64(i%97)), keyModeInt)
		tab.insert(k, int32(i))
	}
	for key := 0; key < 97; key++ {
		k, _ := valKey(value.VInt(int64(key)), keyModeInt)
		var got []int32
		for e := tab.lookup(k); e >= 0; e = tab.ents[e].next {
			got = append(got, tab.ents[e].row)
		}
		var want []int32
		for i := key; i < n; i += 97 {
			want = append(want, int32(i))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %d: chain %v, want %v", key, got, want)
		}
	}
	miss, _ := valKey(value.VInt(int64(1234)), keyModeInt)
	if e := tab.lookup(miss); e != -1 {
		t.Fatalf("lookup(1234) = %d, want -1", e)
	}
}

// joinKeys draws a key column of n rows over about domain distinct keys,
// with NULL keys (sparse, plus rows 1100..1129 so one batch's null words
// hold a run) and, for float keys, NaN and -0 among them.
func joinKeys(r *rand.Rand, kind value.Kind, n, domain int) *store.Vec {
	v := &store.Vec{Kind: kind}
	for i := 0; i < n; i++ {
		k := r.Intn(domain) - domain/2
		switch {
		case i%97 == 3 || (i >= 1100 && i < 1130):
			v.AppendVal(value.VNull)
		case kind == value.Int:
			v.AppendVal(value.VInt(int64(k)))
		case kind == value.Float && r.Intn(40) == 0:
			v.AppendVal(value.VFloat(math.NaN()))
		case kind == value.Float && k == 0:
			v.AppendVal(value.VFloat(math.Copysign(0, -1)))
		case kind == value.Float:
			v.AppendVal(value.VFloat(float64(k)))
		case kind == value.String:
			v.AppendVal(value.VString(fmt.Sprint("k", k)))
		default:
			v.AppendVal(value.VBool(k%2 == 0))
		}
	}
	return v
}

// cursorBatches splits n rows into BatchRows chunks, each selection
// dropping about a fifth of its rows, as a filtered cache scan does.
func cursorBatches(r *rand.Rand, n int) [][]int32 {
	var out [][]int32
	for lo := 0; lo < n; lo += store.BatchRows {
		var sel []int32
		for i := lo; i < min(n, lo+store.BatchRows); i++ {
			if r.Intn(5) != 0 {
				sel = append(sel, int32(i))
			}
		}
		out = append(out, sel)
	}
	return out
}

// TestJoinKernelsMatchRowJoin holds the typed build and probe to the row
// join pair for pair: a build side of three batches with duplicate keys,
// NULL keys and (under float keys) NaN and ±0, inserted batch by batch into
// a table sized for it (a cache scan's build) and into one that grows (a
// nested join's), then probed batch by batch, must list the same (build
// row, probe row) pairs in the same order as the row join's map of slices,
// under every key mode and both cross-kind pairings.
func TestJoinKernelsMatchRowJoin(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		lk, rk               value.Kind
		buildN, probeN, keys int
	}{
		{value.Int, value.Int, 2600, 1500, 600},
		{value.Float, value.Float, 2600, 1500, 600},
		{value.Int, value.Float, 2600, 1500, 600},
		{value.Float, value.Int, 2600, 1500, 600},
		{value.String, value.String, 2600, 1500, 600},
		{value.Bool, value.Bool, 1200, 3, 2},
	} {
		name := fmt.Sprintf("%s-%s", c.lk, c.rk)
		lv, rv := joinKeys(r, c.lk, c.buildN, c.keys), joinKeys(r, c.rk, c.probeN, c.keys)
		lb, rb := cursorBatches(r, c.buildN), cursorBatches(r, c.probeN)
		norm := makeJoinKey(&value.Type{Kind: c.lk}, &value.Type{Kind: c.rk})
		rowTable := map[any][]int32{}
		for _, sel := range lb {
			for _, i := range sel {
				if k, ok := norm(lv.Get(int(i))); ok {
					rowTable[k] = append(rowTable[k], i)
				}
			}
		}
		var want [][2]int32
		for _, sel := range rb {
			for _, j := range sel {
				if k, ok := norm(rv.Get(int(j))); ok {
					for _, i := range rowTable[k] {
						want = append(want, [2]int32{i, j})
					}
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: the row join matched nothing", name)
		}
		mode, _ := joinKeyMode(c.lk, c.rk)
		for _, expect := range []int64{int64(c.buildN), 0} {
			tab := newJoinTable(mode, expect)
			for _, sel := range lb {
				tab.insertBatch(lv, sel, sel)
			}
			it := &joinIter{vj: &vecJoin{mode: mode}, table: tab}
			var got [][2]int32
			for _, sel := range rb {
				it.lids, it.rids = it.lids[:0], it.rids[:0]
				it.probeBatch(rv, sel)
				for k := range it.lids {
					got = append(got, [2]int32{it.lids[k], it.rids[k]})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, table sized for %d: %d pairs, row join %d (first difference at %d)",
					name, expect, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

func firstDiff(a, b [][2]int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// joinBenchTable is the layer benchmarks' build side: 8 batches of int (or
// float) keys over 4096 distinct values, each key twice.
func joinBenchTable(mode keyMode) (*store.Vec, []int32) {
	const rows = 8 * store.BatchRows
	v := &store.Vec{Kind: value.Int}
	if mode == keyModeFloat {
		v.Kind = value.Float
	}
	sel := make([]int32, rows)
	for i := range sel {
		k := int64(i*7919) % (rows / 2)
		if mode == keyModeFloat {
			v.AppendVal(value.VFloat(float64(k)))
		} else {
			v.AppendVal(value.VInt(k))
		}
		sel[i] = int32(i)
	}
	return v, sel
}

// BenchmarkJoinBuild times a typed build: a table sized for its rows, as a
// cache scan's build is, filled batch by batch. ns/row is per build row.
func BenchmarkJoinBuild(b *testing.B) {
	for _, mode := range []keyMode{keyModeInt, keyModeFloat} {
		kv, sel := joinBenchTable(mode)
		b.Run([]string{"int", "float"}[mode], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := newJoinTable(mode, int64(len(sel)))
				for lo := 0; lo < len(sel); lo += store.BatchRows {
					batch := sel[lo : lo+store.BatchRows]
					t.insertBatch(kv, batch, batch)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sel)), "ns/row")
		})
	}
}

// BenchmarkJoinProbe times one probe batch against joinBenchTable's table:
// BatchRows random keys, half of them present, each present key matching
// two build rows. ns/row is per probe row.
func BenchmarkJoinProbe(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, mode := range []keyMode{keyModeInt, keyModeFloat} {
		kv, sel := joinBenchTable(mode)
		t := newJoinTable(mode, int64(len(sel)))
		t.insertBatch(kv, sel, sel)
		pv := &store.Vec{Kind: kv.Kind}
		for i := 0; i < store.BatchRows; i++ {
			k := int64(r.Intn(len(sel)))
			if mode == keyModeFloat {
				pv.AppendVal(value.VFloat(float64(k)))
			} else {
				pv.AppendVal(value.VInt(k))
			}
		}
		psel := sel[:store.BatchRows]
		b.Run([]string{"int", "float"}[mode], func(b *testing.B) {
			it := &joinIter{vj: &vecJoin{mode: mode}, table: t}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it.lids, it.rids = it.lids[:0], it.rids[:0]
				it.probeBatch(pv, psel)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/store.BatchRows, "ns/row")
		})
	}
}
