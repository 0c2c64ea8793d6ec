package sqlparse

import (
	"strings"
	"testing"

	"recache/internal/expr"
)

func TestParseSelectProjectAggregate(t *testing.T) {
	q, err := Parse(`SELECT SUM(l_extendedprice) AS s, COUNT(*), AVG(l_quantity)
		FROM lineitem
		WHERE l_quantity BETWEEN 10 AND 20 AND l_shipdate < 19981201`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 3 {
		t.Fatalf("select items = %d", len(q.Select))
	}
	if q.Select[0].Agg != "sum" || q.Select[0].Col != "l_extendedprice" || q.Select[0].As != "s" {
		t.Errorf("item0 = %+v", q.Select[0])
	}
	if q.Select[1].Agg != "count" || !q.Select[1].Star {
		t.Errorf("item1 = %+v", q.Select[1])
	}
	if len(q.Tables) != 1 || q.Tables[0] != "lineitem" {
		t.Errorf("tables = %v", q.Tables)
	}
	conj := expr.Conjuncts(q.Where)
	if len(conj) != 3 { // between expands to two conjuncts
		t.Errorf("conjuncts = %d: %s", len(conj), q.Where.Canonical())
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse(`SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey
		WHERE o_totalprice > 1000.5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 || len(q.Joins) != 1 {
		t.Fatalf("tables = %v joins = %v", q.Tables, q.Joins)
	}
	j := q.Joins[0]
	if j.Table != "lineitem" || j.LeftCol != "o_orderkey" || j.RightCol != "l_orderkey" {
		t.Errorf("join = %+v", j)
	}
}

func TestParseCommaTables(t *testing.T) {
	q, err := Parse(`SELECT COUNT(*) FROM a, b WHERE x = y AND z > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 {
		t.Errorf("tables = %v", q.Tables)
	}
}

func TestParseGroupBy(t *testing.T) {
	q, err := Parse(`SELECT grp, COUNT(*) FROM t GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "grp" {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if q.Select[0].Agg != "" || q.Select[0].Col != "grp" {
		t.Errorf("item0 = %+v", q.Select[0])
	}
}

func TestParseNestedPaths(t *testing.T) {
	q, err := Parse(`SELECT SUM(lineitems.l_quantity) FROM orderLineitems
		WHERE lineitems.l_extendedprice < 5000`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Col != "lineitems.l_quantity" {
		t.Errorf("nested col = %q", q.Select[0].Col)
	}
}

func TestParseBooleanStructure(t *testing.T) {
	q, err := Parse(`SELECT COUNT(*) FROM t WHERE NOT (a < 1 OR b >= 2) AND c = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Where.Canonical()
	if want == "" {
		t.Fatal("empty canonical")
	}
	conj := expr.Conjuncts(q.Where)
	if len(conj) != 2 {
		t.Errorf("conjuncts = %d", len(conj))
	}
}

func TestParseArithmetic(t *testing.T) {
	q, err := Parse(`SELECT COUNT(*) FROM t WHERE a * 2 + 1 < b - 3`)
	if err != nil {
		t.Fatal(err)
	}
	// Canonicalization sorts commutative operands: a*2 renders as (2*a).
	c := q.Where.Canonical()
	if c != "(((2*a)+1)<(b-3))" {
		t.Errorf("canonical = %s", c)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	q, err := Parse(`SELECT COUNT(*) FROM t WHERE a > -5 AND b < -2.5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil {
		t.Fatal("nil where")
	}
}

func TestParseStringsAndBooleans(t *testing.T) {
	q, err := Parse(`SELECT COUNT(*) FROM t WHERE s = 'hello world' AND flag = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil {
		t.Fatal("nil where")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select count(*) from t where a between 1 and 2 group by a`); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM t`,
		`SELECT COUNT(* FROM t`,
		`SELECT SUM(*) FROM t`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t WHERE a <`,
		`SELECT a FROM t GROUP`,
		`SELECT a FROM t JOIN u`,
		`SELECT a FROM t JOIN u ON a`,
		`SELECT a FROM t trailing junk !`,
		`SELECT a FROM t WHERE s = 'unterminated`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseEquivalentPredicatesCanonicalize(t *testing.T) {
	q1, err := Parse(`SELECT COUNT(*) FROM t WHERE a >= 1 AND a <= 5`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(`SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5`)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Where.Canonical() != q2.Where.Canonical() {
		t.Errorf("BETWEEN and >=/<= should canonicalize equally:\n%s\n%s",
			q1.Where.Canonical(), q2.Where.Canonical())
	}
}

// A statement arrives from the network, so how deep it nests is the
// sender's choice: past maxNesting the parser must answer with an error
// instead of recursing until the goroutine stack overflows (fatal, not
// recoverable). Sibling groups do not accumulate.
func TestParseNestingBound(t *testing.T) {
	const want = "expression nested deeper than"
	bombs := map[string]string{
		"parens": `SELECT a FROM t WHERE ` + strings.Repeat("(", 1_500_000) + `a>1` + strings.Repeat(")", 1_500_000),
		"nots":   `SELECT a FROM t WHERE ` + strings.Repeat("NOT ", 500_000) + `a>1`,
		"minus":  `SELECT a FROM t WHERE a > ` + strings.Repeat("- ", 1_000_000) + `1`,
	}
	for name, src := range bombs {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
	ok := []string{
		`SELECT a FROM t WHERE ` + strings.Repeat("(", maxNesting) + `a>1` + strings.Repeat(")", maxNesting),
		`SELECT a FROM t WHERE ` + strings.Repeat("NOT ", maxNesting) + `a>1`,
		`SELECT a FROM t WHERE ` + strings.Repeat("(a>1) AND ", 10*maxNesting) + `(NOT (a > -1))`,
	}
	for _, src := range ok {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%.40q…) at the bound: %v", src, err)
		}
	}
	over := `SELECT a FROM t WHERE ` + strings.Repeat("(", maxNesting+1) + `a>1` + strings.Repeat(")", maxNesting+1)
	if _, err := Parse(over); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("one level over the bound: err = %v, want %q", err, want)
	}
}
