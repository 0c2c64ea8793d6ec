package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"recache/internal/value"
)

func flatSchema() *value.Type {
	return value.TRecord(
		value.F("a", value.TInt),
		value.F("b", value.TFloat),
		value.F("s", value.TString),
		value.F("flag", value.TBool),
	)
}

func row(a int64, b float64, s string, flag bool) Row {
	return Row{value.VInt(a), value.VFloat(b), value.VString(s), value.VBool(flag)}
}

func TestCompileArithmeticAndComparison(t *testing.T) {
	sch := flatSchema()
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{Cmp(OpAdd, C("a"), L(2)), value.VInt(12)},
		{Cmp(OpMul, C("a"), C("a")), value.VInt(100)},
		{Cmp(OpSub, C("b"), L(0.5)), value.VFloat(2.0)},
		{Cmp(OpDiv, C("a"), L(4)), value.VFloat(2.5)},
		{Cmp(OpDiv, C("a"), L(0)), value.VNull},
		{Cmp(OpLt, C("a"), L(11)), value.VBool(true)},
		{Cmp(OpGe, C("b"), L(2.5)), value.VBool(true)},
		{Cmp(OpEq, C("s"), L("hi")), value.VBool(true)},
		{Cmp(OpNe, C("s"), L("hi")), value.VBool(false)},
		{Cmp(OpGt, L(11), C("a")), value.VBool(true)},
	}
	r := row(10, 2.5, "hi", true)
	for _, c := range cases {
		got, err := Eval(c.e, sch, r)
		if err != nil {
			t.Fatalf("%s: %v", c.e.Canonical(), err)
		}
		if !got.Equal(c.want) || got.Kind != c.want.Kind {
			t.Errorf("%s = %v, want %v", c.e.Canonical(), got, c.want)
		}
	}
}

func TestCompileLogic(t *testing.T) {
	sch := flatSchema()
	r := row(10, 2.5, "hi", true)
	e := And(Cmp(OpGt, C("a"), L(5)), Cmp(OpLt, C("b"), L(3.0)))
	if got, _ := Eval(e, sch, r); !got.B {
		t.Errorf("AND = %v, want true", got)
	}
	e = Or(Cmp(OpGt, C("a"), L(50)), C("flag"))
	if got, _ := Eval(e, sch, r); !got.B {
		t.Errorf("OR = %v, want true", got)
	}
	e = &Not{E: C("flag")}
	if got, _ := Eval(e, sch, r); got.B {
		t.Errorf("NOT = %v, want false", got)
	}
}

func TestCompileNestedColumnAccess(t *testing.T) {
	sch := value.TRecord(
		value.F("id", value.TInt),
		value.F("sub", value.TRecord(value.F("x", value.TInt), value.F("y", value.TFloat))),
	)
	r := Row{value.VInt(1), value.VRecord(value.VInt(42), value.VFloat(3.5))}
	got, err := Eval(C("sub.x"), sch, r)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 42 {
		t.Errorf("sub.x = %v", got)
	}
}

func TestFlatDottedNameTakesPrecedence(t *testing.T) {
	// Post-unnest schemas contain dotted flat names.
	sch := value.TRecord(
		value.F("lineitems.l_quantity", value.TInt),
	)
	r := Row{value.VInt(9)}
	got, err := Eval(C("lineitems.l_quantity"), sch, r)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 9 {
		t.Errorf("got %v", got)
	}
}

func TestTypeErrors(t *testing.T) {
	sch := flatSchema()
	bad := []Expr{
		C("nope"),
		Cmp(OpAdd, C("s"), L(1)),
		And(C("a"), C("flag")), // a is not boolean
		&Not{E: C("a")},
		Cmp(OpLt, C("a"), L("x")),
	}
	for _, e := range bad {
		if _, err := Compile(e, sch); err == nil {
			t.Errorf("Compile(%s) should fail", e.Canonical())
		}
	}
}

func TestListColumnRequiresUnnest(t *testing.T) {
	sch := value.TRecord(value.F("items", value.TList(value.TRecord(value.F("q", value.TInt)))))
	if _, err := Compile(C("items"), sch); err == nil {
		t.Error("addressing a list column should fail")
	}
}

func TestCanonicalNormalization(t *testing.T) {
	a := And(Cmp(OpLt, C("a"), L(5)), Cmp(OpGe, C("b"), L(1.0)))
	b := And(Cmp(OpLe, L(1.0), C("b")), Cmp(OpGt, L(5), C("a")))
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical mismatch:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	// AND order does not matter.
	c := And(Cmp(OpGe, C("b"), L(1.0)), Cmp(OpLt, C("a"), L(5)))
	if a.Canonical() != c.Canonical() {
		t.Errorf("AND order changed canonical form")
	}
	// + is commutative, - is not.
	p1 := Cmp(OpAdd, C("a"), C("b")).Canonical()
	p2 := Cmp(OpAdd, C("b"), C("a")).Canonical()
	if p1 != p2 {
		t.Errorf("a+b canonical differs from b+a")
	}
	m1 := Cmp(OpSub, C("a"), C("b")).Canonical()
	m2 := Cmp(OpSub, C("b"), C("a")).Canonical()
	if m1 == m2 {
		t.Errorf("a-b canonical equals b-a")
	}
}

func TestColumns(t *testing.T) {
	e := And(Cmp(OpLt, C("a"), L(5)), Or(Cmp(OpGt, C("b"), L(1.0)), Cmp(OpEq, C("a"), L(0))))
	cols := Columns(e)
	if len(cols) != 2 || cols[0].String() != "a" || cols[1].String() != "b" {
		t.Errorf("Columns = %v", cols)
	}
	if Columns(nil) != nil {
		t.Error("Columns(nil) should be nil")
	}
}

func TestIntervalCovers(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{Lo: 0, Hi: 10}, Interval{Lo: 2, Hi: 8}, true},
		{Interval{Lo: 0, Hi: 10}, Interval{Lo: 0, Hi: 10}, true},
		{Interval{Lo: 0, Hi: 10}, Interval{Lo: -1, Hi: 5}, false},
		{Interval{Lo: 0, Hi: 10, LoOpen: true}, Interval{Lo: 0, Hi: 5}, false},
		{Interval{Lo: 0, Hi: 10}, Interval{Lo: 0, Hi: 10, HiOpen: true}, true},
		{FullInterval(), Point(3), true},
		{Point(3), FullInterval(), false},
	}
	for _, c := range cases {
		if got := c.a.Covers(c.b); got != c.want {
			t.Errorf("%s.Covers(%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalIntersectEmpty(t *testing.T) {
	a := Interval{Lo: 0, Hi: 5}
	b := Interval{Lo: 3, Hi: 9, HiOpen: true}
	got := a.Intersect(b)
	if got.Lo != 3 || got.Hi != 5 || got.LoOpen || got.HiOpen {
		t.Errorf("Intersect = %s", got)
	}
	if got.Empty() {
		t.Error("non-empty intersection reported empty")
	}
	c := Interval{Lo: 7, Hi: 9}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection should be empty")
	}
	d := Interval{Lo: 5, Hi: 5, LoOpen: true}
	if !d.Empty() {
		t.Error("(5,5] should be empty")
	}
}

func TestExtractRanges(t *testing.T) {
	sch := flatSchema()
	pred := And(
		Between(C("a"), L(10), L(20)),
		Cmp(OpLt, C("b"), L(3.5)),
		Cmp(OpEq, C("s"), L("x")),
	)
	rs, err := ExtractRanges(pred, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cols) != 2 {
		t.Fatalf("got %d ranged cols, want 2: %v", len(rs.Cols), rs.Cols)
	}
	ia := rs.Cols["a"]
	if ia.Lo != 10 || ia.Hi != 20 || ia.LoOpen || ia.HiOpen {
		t.Errorf("a interval = %s", ia)
	}
	ib := rs.Cols["b"]
	if !math.IsInf(ib.Lo, -1) || ib.Hi != 3.5 || !ib.HiOpen {
		t.Errorf("b interval = %s", ib)
	}
	if len(rs.Residuals) != 1 {
		t.Errorf("residuals = %d, want 1 (string equality)", len(rs.Residuals))
	}
}

func TestExtractRangesIntersectsRepeatedColumn(t *testing.T) {
	sch := flatSchema()
	pred := And(Cmp(OpGe, C("a"), L(5)), Cmp(OpLe, C("a"), L(15)), Cmp(OpGe, C("a"), L(8)))
	rs, err := ExtractRanges(pred, sch)
	if err != nil {
		t.Fatal(err)
	}
	ia := rs.Cols["a"]
	if ia.Lo != 8 || ia.Hi != 15 {
		t.Errorf("a interval = %s, want [8,15]", ia)
	}
}

func TestRangeSetCovers(t *testing.T) {
	sch := flatSchema()
	mk := func(e Expr) *RangeSet {
		rs, err := ExtractRanges(e, sch)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	cache := mk(Between(C("a"), L(0), L(100)))
	q1 := mk(Between(C("a"), L(10), L(20)))
	if !cache.Covers(q1) {
		t.Error("wider cache should cover narrower query")
	}
	// Query with extra conjunct on another column: still covered (residual
	// reapplied on scan).
	q2 := mk(And(Between(C("a"), L(10), L(20)), Cmp(OpLt, C("b"), L(1.0))))
	if !cache.Covers(q2) {
		t.Error("extra query conjuncts should not block coverage")
	}
	// Cache constrains b but query does not: not covered.
	cache2 := mk(And(Between(C("a"), L(0), L(100)), Cmp(OpLt, C("b"), L(1.0))))
	q3 := mk(Between(C("a"), L(10), L(20)))
	if cache2.Covers(q3) {
		t.Error("cache with extra constraint must not cover unconstrained query")
	}
	// Cache with residual conjuncts never subsumes.
	cache3 := mk(And(Between(C("a"), L(0), L(100)), Cmp(OpEq, C("s"), L("x"))))
	if cache3.Covers(q1) {
		t.Error("cache with residuals must not cover")
	}
	// Interval too narrow.
	cache4 := mk(Between(C("a"), L(12), L(20)))
	if cache4.Covers(q1) {
		t.Error("narrower cache must not cover")
	}
}

// Property: coverage decided by Covers agrees with brute-force evaluation on
// random integer points.
func TestCoversAgreesWithSemantics(t *testing.T) {
	sch := flatSchema()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randPred := func() Expr {
			lo := int64(r.Intn(50))
			hi := lo + int64(r.Intn(50))
			return Between(C("a"), L(lo), L(hi))
		}
		cp, qp := randPred(), randPred()
		crs, _ := ExtractRanges(cp, sch)
		qrs, _ := ExtractRanges(qp, sch)
		covers := crs.Covers(qrs)
		cpred, _ := CompilePredicate(cp, sch)
		qpred, _ := CompilePredicate(qp, sch)
		for x := int64(-5); x < 110; x++ {
			rw := row(x, 0, "", false)
			if qpred(rw) && !cpred(rw) && covers {
				return false // claimed coverage but a point escapes
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeSetCanonicalDeterministic(t *testing.T) {
	sch := flatSchema()
	p1 := And(Cmp(OpGe, C("a"), L(1)), Cmp(OpLt, C("b"), L(2.0)))
	p2 := And(Cmp(OpLt, C("b"), L(2.0)), Cmp(OpGe, C("a"), L(1)))
	r1, _ := ExtractRanges(p1, sch)
	r2, _ := ExtractRanges(p2, sch)
	if r1.Canonical() != r2.Canonical() {
		t.Errorf("canonical differs:\n%s\n%s", r1.Canonical(), r2.Canonical())
	}
}

func TestNullPropagation(t *testing.T) {
	sch := value.TRecord(value.FOpt("a", value.TInt), value.F("b", value.TInt))
	r := Row{value.VNull, value.VInt(1)}
	got, err := Eval(Cmp(OpLt, C("a"), L(5)), sch, r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsNull() {
		t.Errorf("null < 5 = %v, want null", got)
	}
	p, err := CompilePredicate(Cmp(OpLt, C("a"), L(5)), sch)
	if err != nil {
		t.Fatal(err)
	}
	if p(r) {
		t.Error("null predicate should filter out the row")
	}
	// AND short-circuit with null: false AND null = false.
	e := And(Cmp(OpGt, C("b"), L(5)), Cmp(OpLt, C("a"), L(5)))
	if got, _ := Eval(e, sch, r); got.Kind != value.Bool || got.B {
		t.Errorf("false AND null = %v, want false", got)
	}
	// true OR null = true.
	e = Or(Cmp(OpGe, C("b"), L(1)), Cmp(OpLt, C("a"), L(5)))
	if got, _ := Eval(e, sch, r); got.Kind != value.Bool || !got.B {
		t.Errorf("true OR null = %v, want true", got)
	}
}

func TestEvalCompiledMatchesNaive(t *testing.T) {
	// Property: compiled comparison on random int rows matches Value.Compare.
	sch := flatSchema()
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	f := func(a, b int64) bool {
		r := row(a%1000, 0, "", false)
		for _, op := range ops {
			e := Cmp(op, C("a"), L(b%1000))
			got, err := Eval(e, sch, r)
			if err != nil {
				return false
			}
			want := cmpResult(op, value.VInt(a%1000).Compare(value.VInt(b%1000)))
			if got.B != (want == triTrue) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
