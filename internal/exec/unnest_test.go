package exec

import (
	"sort"
	"testing"

	"recache/internal/cache"
	"recache/internal/datagen"
	"recache/internal/expr"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/value"
)

// BenchmarkNestedMiss is the nested miss of explore's nested class over the
// generated orderLineitems file (3750 orders, about 15 k lineitems): an
// unnesting aggregate whose select passes one order in eight, as a miss
// that builds an eager entry, one that admits a lazy entry, and one with
// caching off. ns/record is per order the select passes.
func BenchmarkNestedMiss(b *testing.B) {
	paths, err := datagen.TPCH(b.TempDir(), 0.0025, 1)
	if err != nil {
		b.Fatal(err)
	}
	// datagen.OrderLineitemsSchema.
	schema := value.TRecord(
		value.F("o_orderkey", value.TInt), value.F("o_custkey", value.TInt), value.F("o_totalprice", value.TFloat),
		value.F("o_orderdate", value.TInt), value.F("o_shippriority", value.TInt), value.F("o_orderpriority", value.TString),
		value.F("lineitems", value.TList(value.TRecord(
			value.F("l_partkey", value.TInt), value.F("l_suppkey", value.TInt), value.F("l_linenumber", value.TInt),
			value.F("l_quantity", value.TInt), value.F("l_extendedprice", value.TFloat), value.F("l_discount", value.TFloat),
			value.F("l_tax", value.TFloat), value.F("l_shipdate", value.TInt)))))
	prov, err := jsonio.New(paths.OrderLineitems, schema)
	if err != nil {
		b.Fatal(err)
	}
	ds := &plan.Dataset{Name: "orders", Format: plan.FormatJSON, Provider: prov}
	price := value.ParsePath("o_totalprice")
	ext := value.ParsePath("lineitems.l_extendedprice")
	// The price one order in eight stays under.
	var prices []float64
	if err := prov.Scan([]value.Path{price}, func(rec value.Value, _ int64, _ func() error) error {
		prices = append(prices, rec.L[2].F)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	sort.Float64s(prices)
	passing := len(prices) / 8
	limit := prices[passing]
	mk := func() plan.Node {
		sel := &plan.Select{Pred: expr.Cmp(expr.OpLe, expr.C("o_totalprice"), expr.L(limit)), Child: &plan.Scan{DS: ds}}
		un, err := plan.NewUnnest(sel)
		if err != nil {
			b.Fatal(err)
		}
		agg, err := plan.NewAggregate([]plan.AggSpec{
			{Func: plan.AggSum, Arg: expr.C(ext.String()), Name: "s"},
			{Func: plan.AggCount, Name: "n"},
		}, nil, nil, un)
		if err != nil {
			b.Fatal(err)
		}
		return agg
	}
	needed := map[string][]value.Path{"orders": {price, ext}}
	names := map[string][]string{"orders": {price.String(), ext.String()}}
	for _, mode := range []struct {
		name      string
		admission cache.AdmissionMode
		off       bool
	}{{"eager", cache.AlwaysEager, false}, {"lazy", cache.AlwaysLazy, false}, {"off", 0, true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root, deps := mk(), Deps{Needed: needed}
				if !mode.off {
					m := cache.NewManager(cache.Config{Admission: mode.admission})
					root, deps.Manager = m.Rewrite(root, names), m
				}
				res, _, err := Run(root, deps)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows[0][1].I == 0 {
					b.Fatal("no lineitems")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(passing), "ns/record")
		})
	}
}
