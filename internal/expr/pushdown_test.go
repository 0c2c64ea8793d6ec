package expr

import (
	"math"
	"math/rand"
	"testing"

	"recache/internal/value"
)

func pushdownSchema() *value.Type {
	return value.TRecord(
		value.F("a", value.TInt),
		value.F("b", value.TFloat),
		value.F("c", value.TString),
		value.F("d", value.TInt),
	)
}

func TestExtractPushdownSplit(t *testing.T) {
	schema := pushdownSchema()
	pred := And(
		Cmp(OpGe, C("a"), L(10)),
		Cmp(OpLt, C("a"), L(90)),
		Cmp(OpEq, C("c"), L("x")),
		Cmp(OpGt, &Bin{Op: OpAdd, L: C("a"), R: C("d")}, L(5)), // arithmetic: not pushable
	)
	pd, residual := ExtractPushdown(pred, schema)
	if pd == nil {
		t.Fatal("pd = nil")
	}
	if got := pd.NumConjuncts(); got != 3 {
		t.Fatalf("NumConjuncts = %d, want 3", got)
	}
	if residual == nil {
		t.Fatal("residual = nil, want the arithmetic conjunct")
	}
	if got := len(Conjuncts(residual)); got != 1 {
		t.Fatalf("residual conjuncts = %d, want 1", got)
	}
	// a's two bounds fuse into one interval test; c gets its own.
	if got := len(pd.Tests()); got != 2 {
		t.Fatalf("tests = %d, want 2", got)
	}
	// Int column ordered before the string column.
	if pd.Tests()[0].Kind != value.Int || pd.Tests()[1].Kind != value.String {
		t.Fatalf("test order = %v, %v", pd.Tests()[0].Kind, pd.Tests()[1].Kind)
	}
}

func TestExtractPushdownNothingPushable(t *testing.T) {
	schema := pushdownSchema()
	pred := Cmp(OpGt, &Bin{Op: OpAdd, L: C("a"), R: C("d")}, L(5))
	pd, residual := ExtractPushdown(pred, schema)
	if pd != nil {
		t.Fatal("pd should be nil")
	}
	if residual != pred {
		t.Fatal("residual should be the whole predicate")
	}
	if pd2, res2 := ExtractPushdown(nil, schema); pd2 != nil || res2 != nil {
		t.Fatal("nil predicate should extract to nil, nil")
	}
}

// TestPushdownRowParity: pushed ∧ residual must agree with the compiled
// full predicate on every row, including nulls and NaNs.
func TestPushdownRowParity(t *testing.T) {
	schema := pushdownSchema()
	preds := []Expr{
		Cmp(OpGe, C("a"), L(10)),
		And(Cmp(OpGe, C("a"), L(10)), Cmp(OpLe, C("a"), L(50))),
		And(Cmp(OpGt, C("b"), L(0.25)), Cmp(OpNe, C("a"), L(20))),
		And(Cmp(OpLt, C("c"), L("mm")), Cmp(OpGe, C("c"), L("aa"))),
		And(Cmp(OpEq, C("a"), L(30)), Cmp(OpNe, C("b"), L(0.5))),
		And(Cmp(OpLe, C("b"), L(1.5)), Cmp(OpGt, C("d"), L(-5))),
		// Mixed: int column vs float literal.
		Cmp(OpLt, C("a"), L(25.5)),
		// Statically empty.
		And(Cmp(OpGt, C("a"), L(50)), Cmp(OpLt, C("a"), L(10))),
		// Crossed but non-strict: NaN still passes.
		And(Cmp(OpGe, C("b"), L(1.0)), Cmp(OpLe, C("b"), L(0.5))),
	}
	r := rand.New(rand.NewSource(7))
	randVal := func(k value.Kind) value.Value {
		if r.Intn(5) == 0 {
			return value.VNull
		}
		switch k {
		case value.Int:
			return value.VInt(int64(r.Intn(100) - 20))
		case value.Float:
			if r.Intn(10) == 0 {
				return value.VFloat(math.NaN())
			}
			return value.VFloat(r.Float64()*2 - 0.5)
		default:
			s := []string{"aa", "ab", "mm", "zz", ""}[r.Intn(5)]
			return value.VString(s)
		}
	}
	for pi, pred := range preds {
		full, err := CompilePredicate(pred, schema)
		if err != nil {
			t.Fatalf("pred %d: %v", pi, err)
		}
		pd, residual := ExtractPushdown(pred, schema)
		if pd == nil {
			t.Fatalf("pred %d: not pushable", pi)
		}
		res, err := CompilePredicate(residual, schema)
		if err != nil {
			t.Fatalf("pred %d residual: %v", pi, err)
		}
		for i := 0; i < 2000; i++ {
			row := Row{randVal(value.Int), randVal(value.Float), randVal(value.String), randVal(value.Int)}
			got := pd.TestRow(row) && res(row)
			want := full(row)
			if got != want {
				t.Fatalf("pred %d row %v: pushdown %v, full %v", pi, row, got, want)
			}
		}
	}
}

// TestColTestTypedParity: the typed entry points must agree with TestRow.
func TestColTestTypedParity(t *testing.T) {
	schema := pushdownSchema()
	pred := And(
		Cmp(OpGe, C("a"), L(10)),
		Cmp(OpLe, C("a"), L(50)),
		Cmp(OpNe, C("a"), L(30)),
		Cmp(OpGt, C("b"), L(0.25)),
		Cmp(OpGe, C("c"), L("b")),
	)
	pd, _ := ExtractPushdown(pred, schema)
	var ta, tb, tc *ColTest
	tests := pd.Tests()
	for i := range tests {
		switch tests[i].Slot {
		case 0:
			ta = &tests[i]
		case 1:
			tb = &tests[i]
		case 2:
			tc = &tests[i]
		}
	}
	for _, x := range []int64{9, 10, 30, 31, 50, 51} {
		want := pd.TestRow(Row{value.VInt(x), value.VFloat(1), value.VString("c"), value.VNull})
		if got := ta.TestInt(x) && tb.TestFloat(1) && tc.TestStr("c"); got != want {
			t.Fatalf("x=%d typed=%v row=%v", x, got, want)
		}
	}
	for _, f := range []float64{0.24, 0.25, 0.26, math.NaN()} {
		want := pd.TestRow(Row{value.VInt(20), value.VFloat(f), value.VString("c"), value.VNull})
		if got := ta.TestInt(20) && tb.TestFloat(f) && tc.TestStr("c"); got != want {
			t.Fatalf("f=%v typed=%v row=%v", f, got, want)
		}
	}
	for _, s := range []string{"a", "b", "bb", ""} {
		want := pd.TestRow(Row{value.VInt(20), value.VFloat(1), value.VString(s), value.VNull})
		got := ta.TestInt(20) && tb.TestFloat(1) && tc.TestStr(s)
		if got != want {
			t.Fatalf("s=%q typed=%v row=%v", s, got, want)
		}
		if tc.TestStrBytes([]byte(s)) != tc.TestStr(s) {
			t.Fatalf("s=%q TestStrBytes disagrees with TestStr", s)
		}
	}
}

func TestPushdownString(t *testing.T) {
	schema := pushdownSchema()
	pd, _ := ExtractPushdown(And(Cmp(OpGe, C("a"), L(10)), Cmp(OpLt, C("b"), L(5.0))), schema)
	got := pd.String()
	want := "[" + Cmp(OpGe, C("a"), L(10)).Canonical() + ", " + Cmp(OpLt, C("b"), L(5.0)).Canonical() + "]"
	if got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
}
