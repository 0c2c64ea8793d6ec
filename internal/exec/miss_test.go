package exec

import (
	"testing"

	"recache/internal/cache"
	"recache/internal/csvio"
	"recache/internal/datagen"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/value"
)

// BenchmarkFlatMiss is the flat twin of BenchmarkNestedMiss: first touches
// of the generated lineitem CSV (about 15 k records; the select on
// l_quantity passes about two in five) under an aggregate, a GROUP BY, a
// join with the orders CSV (3750 records, every one a miss too) and a row
// projection, each as a miss that builds eager entries and one with
// caching off.
func BenchmarkFlatMiss(b *testing.B) {
	paths, err := datagen.TPCH(b.TempDir(), 0.0025, 1)
	if err != nil {
		b.Fatal(err)
	}
	// datagen.LineitemSchema and datagen.OrdersSchema.
	liSchema := value.TRecord(
		value.F("l_orderkey", value.TInt), value.F("l_partkey", value.TInt), value.F("l_suppkey", value.TInt),
		value.F("l_linenumber", value.TInt), value.F("l_quantity", value.TInt), value.F("l_extendedprice", value.TFloat),
		value.F("l_discount", value.TFloat), value.F("l_tax", value.TFloat), value.F("l_shipdate", value.TInt))
	oSchema := value.TRecord(
		value.F("o_orderkey", value.TInt), value.F("o_custkey", value.TInt), value.F("o_totalprice", value.TFloat),
		value.F("o_orderdate", value.TInt), value.F("o_shippriority", value.TInt), value.F("o_orderpriority", value.TString))
	dataset := func(name, path string, schema *value.Type) *plan.Dataset {
		prov, err := csvio.New(path, schema, csvio.Options{Delim: '|'})
		if err != nil {
			b.Fatal(err)
		}
		return &plan.Dataset{Name: name, Format: plan.FormatCSV, Provider: prov}
	}
	li := dataset("lineitem", paths.Lineitem, liSchema)
	orders := dataset("orders", paths.Orders, oSchema)
	must := func(n plan.Node, err error) plan.Node {
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	sel := func() plan.Node {
		return &plan.Select{Pred: expr.Between(expr.C("l_quantity"), expr.L(10), expr.L(29)), Child: &plan.Scan{DS: li}}
	}
	sumCount := []plan.AggSpec{{Func: plan.AggSum, Arg: expr.C("l_extendedprice"), Name: "s"}, {Func: plan.AggCount, Name: "n"}}
	cases := []struct {
		name string
		mk   func() plan.Node
		cols []string
	}{
		{"aggregate", func() plan.Node { return must(plan.NewAggregate(sumCount, nil, nil, sel())) },
			[]string{"l_quantity", "l_extendedprice"}},
		{"groupby", func() plan.Node {
			return must(plan.NewAggregate(sumCount, []expr.Expr{expr.C("l_linenumber")}, []string{"l_linenumber"}, sel()))
		}, []string{"l_quantity", "l_extendedprice", "l_linenumber"}},
		{"join", func() plan.Node {
			j := must(plan.NewJoin(&plan.Select{Child: &plan.Scan{DS: orders}}, sel(), expr.C("o_orderkey"), expr.C("l_orderkey")))
			return must(plan.NewAggregate([]plan.AggSpec{
				{Func: plan.AggSum, Arg: expr.C("o_totalprice"), Name: "s"}, {Func: plan.AggCount, Name: "n"},
			}, nil, nil, j))
		}, []string{"l_quantity", "l_orderkey", "o_orderkey", "o_totalprice"}},
		{"rows", func() plan.Node {
			return must(plan.NewProject([]expr.Expr{expr.C("l_orderkey"), expr.C("l_extendedprice")},
				[]string{"l_orderkey", "l_extendedprice"}, sel()))
		}, []string{"l_quantity", "l_orderkey", "l_extendedprice"}},
	}
	for _, c := range cases {
		needed := map[string][]value.Path{"lineitem": {}, "orders": {}}
		names := map[string][]string{"lineitem": {}, "orders": {}}
		for _, col := range c.cols {
			ds := "lineitem"
			if col[0] == 'o' {
				ds = "orders"
			}
			needed[ds] = append(needed[ds], value.ParsePath(col))
			names[ds] = append(names[ds], col)
		}
		for _, mode := range []struct {
			name string
			off  bool
		}{{"eager", false}, {"off", true}} {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					root, deps := c.mk(), uncached(needed)
					if !mode.off {
						m := cache.NewManager(cache.Config{Admission: cache.AlwaysEager})
						root, deps.Manager = m.Rewrite(root, names), m
					}
					res, _, err := Run(root, deps)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("no rows")
					}
				}
			})
		}
	}
}
