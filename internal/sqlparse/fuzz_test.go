package sqlparse

import (
	"strings"
	"testing"
)

// FuzzParse feeds the parser arbitrary statements, as a network client can:
// it must never panic, and a statement it accepts must parse to the same
// predicate every time (cache keys and shard routes are built from
// Where.Canonical()).
func FuzzParse(f *testing.F) {
	// One query per class of the benchmark's pool (benchmark/queries.go),
	// then the two shapes that recurse.
	for _, src := range []string{
		`SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN 19940101 AND 19940412`,
		`SELECT AVG(l_quantity), MAX(l_extendedprice) FROM lineitem WHERE l_extendedprice BETWEEN 1200.50 AND 9100.25`,
		`SELECT l_quantity, SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_partkey BETWEEN 10 AND 900 GROUP BY l_quantity`,
		`SELECT AVG(c_acctbal), MAX(o_totalprice) FROM orders JOIN customer ON o_custkey = c_custkey WHERE o_totalprice BETWEEN 1000.00 AND 90000.00 AND c_acctbal BETWEEN -500.00 AND 2500.00`,
		`SELECT MAX(lineitems.l_quantity), AVG(o_totalprice) FROM ordersnested WHERE o_orderdate BETWEEN 19930101 AND 19950101`,
		`SELECT l_orderkey, l_quantity, l_extendedprice, l_shipdate FROM lineitem WHERE l_orderkey BETWEEN 5 AND 70000 AND l_quantity BETWEEN 12 AND 25`,
		`SELECT COUNT(*) FROM a, b WHERE x = y AND s <> 'hello world' OR NOT flag = TRUE AND z * 2 + 1 >= -3.5e2 / w`,
		`SELECT a FROM t WHERE ` + strings.Repeat("NOT ", 40) + `a > 1`,
		`SELECT a FROM t WHERE ` + strings.Repeat("(", 40) + `a > 1` + strings.Repeat(")", 40),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil || q.Where == nil {
			return
		}
		again, err := Parse(src)
		if err != nil {
			t.Fatalf("second parse failed: %v", err)
		}
		if a, b := q.Where.Canonical(), again.Where.Canonical(); a != b {
			t.Fatalf("canonical form not stable:\n%s\n%s", a, b)
		}
	})
}
