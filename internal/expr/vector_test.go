package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"recache/internal/store"
	"recache/internal/value"
)

// vecFixture builds aligned column vectors and boxed rows over
// (a int, b float, c string) with a sprinkling of nulls.
func vecFixture(n int, seed int64) ([]*store.Vec, []Row, *value.Type) {
	schema := value.TRecord(
		value.F("a", value.TInt),
		value.F("b", value.TFloat),
		value.F("c", value.TString),
	)
	r := rand.New(rand.NewSource(seed))
	cols := []*store.Vec{{Kind: value.Int}, {Kind: value.Float}, {Kind: value.String}}
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		row := make(Row, 3)
		if r.Intn(10) == 0 {
			row[0] = value.VNull
		} else {
			row[0] = value.VInt(int64(r.Intn(100)))
		}
		if r.Intn(10) == 0 {
			row[1] = value.VNull
		} else {
			row[1] = value.VFloat(r.Float64() * 100)
		}
		if r.Intn(10) == 0 {
			row[2] = value.VNull
		} else {
			row[2] = value.VString(string(rune('a' + r.Intn(5))))
		}
		for c := 0; c < 3; c++ {
			cols[c].AppendVal(row[c])
		}
		rows[i] = row
	}
	return cols, rows, schema
}

func fullSel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

func TestVecFilterMatchesRowPredicate(t *testing.T) {
	cols, rows, schema := vecFixture(500, 7)
	preds := []Expr{
		nil,
		Between(C("a"), L(20), L(60)),
		Cmp(OpGt, C("a"), L(30)),
		Cmp(OpLt, C("b"), L(42.5)),
		And(Cmp(OpGe, C("b"), L(10.0)), Cmp(OpLe, C("b"), L(80.0))),
		Cmp(OpEq, C("c"), L("b")),
		Cmp(OpNe, C("c"), L("c")),
		Cmp(OpNe, C("a"), L(50)),
		// Mixed: int column against a float literal compares as float.
		Cmp(OpLe, C("a"), L(24.5)),
		// Multi-conjunct over one column merges into one interval kernel.
		And(Cmp(OpGe, C("a"), L(10)), Cmp(OpLt, C("a"), L(90)), Cmp(OpNe, C("a"), L(42))),
		// Statically empty interval.
		And(Cmp(OpGt, C("a"), L(50)), Cmp(OpLt, C("a"), L(40))),
		// Everything at once, including the literal-on-the-left orientation.
		And(Cmp(OpGe, L(5), C("a")), Cmp(OpGt, C("b"), L(1.5)), Cmp(OpGe, C("c"), L("a"))),
	}
	for pi, pred := range preds {
		t.Run(fmt.Sprintf("pred%d", pi), func(t *testing.T) {
			rowPred, err := CompilePredicate(pred, schema)
			if err != nil {
				t.Fatal(err)
			}
			vf, err := CompileVecFilter(pred, schema)
			if err != nil || vf.rest != nil {
				t.Fatalf("predicate %d should compile to typed kernels: %v", pi, err)
			}
			if !vf.Compatible([]value.Kind{cols[0].Kind, cols[1].Kind, cols[2].Kind}) {
				t.Fatal("filter incompatible with its own schema's columns")
			}
			got := vf.Apply(cols, fullSel(len(rows)))
			var want []int32
			for i, row := range rows {
				if rowPred(row) {
					want = append(want, int32(i))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("selected %d rows, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sel[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// The typed tests take no shape but <col> <cmp> <literal>: these
// predicates compile to the generic kernel alone, which keeps exactly the
// rows the row predicate keeps, NULLs and a nested path included.
func TestVecFilterRejectsNonVectorizable(t *testing.T) {
	schema := value.TRecord(
		value.F("a", value.TInt),
		value.F("b", value.TFloat),
		value.F("flag", value.TBool),
		value.F("o", value.TRecord(value.F("x", value.TInt))),
	)
	bad := []Expr{
		Or(Cmp(OpGt, C("a"), L(1)), Cmp(OpLt, C("a"), L(0))),  // disjunction
		Cmp(OpGt, &Bin{Op: OpAdd, L: C("a"), R: L(1)}, L(10)), // arithmetic operand
		Cmp(OpEq, C("flag"), L(true)),                         // bool column
		Cmp(OpEq, C("a"), C("b")),                             // col vs col
		&Not{E: Cmp(OpGt, C("a"), L(1))},                      // negation
		Cmp(OpGe, C("o.x"), L(2)),                             // a path into a sub-record
	}
	cols := []*store.Vec{{Kind: value.Int}, {Kind: value.Float}, {Kind: value.Bool}, {Kind: value.Record}}
	var rows []Row
	for i := 0; i < 100; i++ {
		row := Row{value.VInt(int64(i%7 - 2)), value.VFloat(float64(i%5 - 1)), value.VBool(i%3 == 0),
			value.VRecord(value.VInt(int64(i % 4)))}
		if i%11 == 0 {
			row[i%4] = value.VNull
		}
		for c, v := range row {
			cols[c].AppendVal(v)
		}
		rows = append(rows, row)
	}
	for i, e := range bad {
		vf, err := CompileVecFilter(e, schema)
		if err != nil || vf.rest == nil || len(vf.tests) != 0 {
			t.Fatalf("predicate %d: %v; want the generic kernel alone", i, err)
		}
		rowPred, err := CompilePredicate(e, schema)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for k, row := range rows {
			if rowPred(row) {
				want = append(want, int32(k))
			}
		}
		if got := vf.Apply(cols, fullSel(len(rows))); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("predicate %d (%s): kept %v, want %v", i, e.Canonical(), got, want)
		}
	}
}

func TestVecFilterIntervalFusion(t *testing.T) {
	schema := value.TRecord(value.F("a", value.TInt))
	// Three conjuncts on one column: one fused interval kernel.
	vf, err := CompileVecFilter(
		And(Cmp(OpGe, C("a"), L(10)), Cmp(OpLe, C("a"), L(40)), Cmp(OpGt, C("a"), L(12))), schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(vf.tests) != 1 || vf.rest != nil {
		t.Fatalf("tests = %d, rest %v; want 1 fused interval", len(vf.tests), vf.rest != nil)
	}
	if ct := vf.tests[0]; ct.lo != 13 || ct.hi != 40 || ct.fltRanged() {
		t.Errorf("fused test = %+v, want [13,40]", ct)
	}
}

// A chain with one conjunct the typed tests do not take runs the typed
// kernel for the others, and the generic kernel only on the rows they kept.
func TestVecFilterMixedChain(t *testing.T) {
	schema := value.TRecord(value.F("a", value.TInt), value.F("flag", value.TBool))
	pred := And(Cmp(OpGt, C("a"), L(1)), Cmp(OpEq, C("flag"), L(true)))
	vf, err := CompileVecFilter(pred, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(vf.tests) != 1 || vf.tests[0].Slot != 0 || vf.tests[0].Kind != value.Int || vf.rest == nil {
		t.Fatalf("tests %+v, rest %v; want one int test on a and a rest", vf.tests, vf.rest != nil)
	}
	cols := []*store.Vec{{Kind: value.Int}, {Kind: value.Bool}}
	var rows []Row
	for i := 0; i < 200; i++ {
		row := Row{value.VInt(int64(i%5 - 1)), value.VBool(i%3 == 0)}
		if i%13 == 0 {
			row[i%2] = value.VNull
		}
		for c, v := range row {
			cols[c].AppendVal(v)
		}
		rows = append(rows, row)
	}
	if !slices.Equal(vf.restSlots, []int{1}) {
		t.Fatalf("the rest boxes slots %v, want [1]: flag alone", vf.restSlots)
	}
	rest, seen, kept := vf.rest, 0, 0
	vf.rest = func(r Row) bool {
		if len(r) != 1 || r[0].Kind != value.Bool && r[0].Kind != value.Null {
			t.Fatalf("the generic kernel saw row %v, want flag alone", r)
		}
		seen++
		return rest(r)
	}
	rowPred, err := CompilePredicate(pred, schema)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for i, row := range rows {
		if row[0].Kind == value.Int && row[0].I > 1 {
			kept++
		}
		if rowPred(row) {
			want = append(want, int32(i))
		}
	}
	if got := vf.Apply(cols, fullSel(len(rows))); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("kept %v, want %v", got, want)
	}
	if seen != kept {
		t.Errorf("the generic kernel saw %d rows, want the %d that a > 1 kept", seen, kept)
	}
}

// Compatible rejects a batch that lacks a tested slot: the source fails at
// open instead of every batch filtering to nothing.
func TestVecFilterCompatibleChecksSlot(t *testing.T) {
	schema := value.TRecord(value.F("b", value.TInt), value.F("a", value.TInt))
	vf, err := CompileVecFilter(Cmp(OpGt, C("a"), L(1)), schema)
	if err != nil {
		t.Fatal(err)
	}
	if vf.Compatible([]value.Kind{value.Int}) {
		t.Error("a test on slot 1 is compatible with a one-column batch")
	}
	if !vf.Compatible([]value.Kind{value.Int, value.Int}) || vf.Compatible([]value.Kind{value.Int, value.Float}) {
		t.Error("Compatible does not compare the tested slot's kind")
	}
}

// TestVecFilterNaNParity pins the NaN semantics to the row evaluator's:
// a NaN column value compares equal to everything there, so it passes =,
// <= and >= but fails <, > and <>; a NaN literal makes strict comparisons
// reject every row and non-strict ones vacuous.
func TestVecFilterNaNParity(t *testing.T) {
	schema := value.TRecord(value.F("b", value.TFloat))
	col := &store.Vec{Kind: value.Float}
	vals := []float64{1, math.NaN(), 5, math.NaN(), 9}
	for _, x := range vals {
		col.AppendVal(value.VFloat(x))
	}
	cols := []*store.Vec{col}
	preds := []Expr{
		Cmp(OpLt, C("b"), L(6.0)),
		Cmp(OpLe, C("b"), L(6.0)),
		Cmp(OpGt, C("b"), L(2.0)),
		Cmp(OpGe, C("b"), L(2.0)),
		Cmp(OpEq, C("b"), L(5.0)),
		Cmp(OpNe, C("b"), L(5.0)),
		And(Cmp(OpGe, C("b"), L(0.0)), Cmp(OpLt, C("b"), L(8.0))), // mixed strictness interval
		And(Cmp(OpGe, C("b"), L(6.0)), Cmp(OpLe, C("b"), L(2.0))), // crossed, non-strict: NaN passes
		And(Cmp(OpGe, C("b"), L(6.0)), Cmp(OpLt, C("b"), L(2.0))), // crossed, strict: empty
		Cmp(OpLt, C("b"), L(math.NaN())),
		Cmp(OpLe, C("b"), L(math.NaN())),
		Cmp(OpNe, C("b"), L(math.NaN())),
	}
	for pi, pred := range preds {
		rowPred, err := CompilePredicate(pred, schema)
		if err != nil {
			t.Fatal(err)
		}
		vf, err := CompileVecFilter(pred, schema)
		if err != nil {
			t.Fatalf("pred %d: %v", pi, err)
		}
		got := vf.Apply(cols, fullSel(len(vals)))
		var want []int32
		for i, x := range vals {
			if rowPred(Row{value.VFloat(x)}) {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("pred %d (%s): selected %d rows, want %d", pi, pred.Canonical(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pred %d: sel[%d] = %d, want %d", pi, i, got[i], want[i])
			}
		}
	}
}

func TestVecFilterAllNullColumn(t *testing.T) {
	schema := value.TRecord(value.F("a", value.TInt))
	col := &store.Vec{Kind: value.Int}
	for i := 0; i < 70; i++ {
		col.AppendVal(value.VNull)
	}
	vf, err := CompileVecFilter(Cmp(OpGe, C("a"), L(0)), schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := vf.Apply([]*store.Vec{col}, fullSel(70)); len(got) != 0 {
		t.Errorf("all-null column selected %d rows, want 0", len(got))
	}
}

// Edge values the kernels must agree with the row predicate on: the int64
// extremes (the unsigned range compare's wrap-around), values just inside
// them, 2^53 (where float64 stops holding every int), and for floats NaN,
// ±0, ±Inf, the extreme finite values and the smallest subnormal (the
// neighbour a strict bound at 0 moves to).
var (
	edgeInts   = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, -1, 0, 1, 1 << 53, math.MaxInt64 - 1, math.MaxInt64}
	edgeFloats = []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0,
		5e-324, 1, 9.223372036854775807e18, math.MaxFloat64, math.Inf(1)}
)

// shapeBytes hands out a fuzz input's bytes in order, then zeros.
type shapeBytes []byte

func (b *shapeBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// lit reads a literal: a small value (so ranges cut through the data) or,
// for the upper half of the byte range, an edge value.
func (b *shapeBytes) lit(float bool) value.Value {
	c := int(b.next())
	switch {
	case !float && c < 128:
		return value.VInt(int64(c - 64))
	case !float:
		return value.VInt(edgeInts[(c-128)%len(edgeInts)])
	case c < 128:
		return value.VFloat(float64(c-64) / 4)
	default:
		return value.VFloat(edgeFloats[(c-128)%len(edgeFloats)])
	}
}

// FuzzVecFilter holds the selection kernels to the row predicate: an
// AND-chain of BETWEEN, <, <=, =, <>, > and >= conjuncts over an int
// column a and a float column b, with int or float literals on either
// side, applied to an ascending selection over more than one 64-row null
// word, must keep exactly the rows CompilePredicate keeps, in order. The
// last shape byte turns the chain into a predicate only the generic kernel
// runs — an OR of the conjuncts or their negated AND — or a mixed chain,
// the AND with an arithmetic conjunct comparing a to b, which the generic
// kernel runs on the rows the typed tests kept; each is held to the same
// row predicate.
// seed draws the column values (edge values among them) and their NULLs;
// shape picks the NULL placement, the selection, the conjuncts and the form.
func FuzzVecFilter(f *testing.F) {
	// shape: rows, NULL mode, selection mode, conjuncts-1, then per
	// conjunct its form (column, literal kind, side), two literals and
	// the operator (6 is BETWEEN), then the form (0 AND, 1 OR, 2 NOT, 3
	// arithmetic).
	f.Add(int64(1), []byte{0, 0, 1, 0, 0, 128, 136, 6})                          // a BETWEEN MinInt64 AND MaxInt64
	f.Add(int64(2), []byte{1, 1, 2, 1, 0, 135, 0, 4, 3, 70, 0, 1})               // a > MaxInt64-1 AND b <= 1.5
	f.Add(int64(3), []byte{2, 2, 0, 1, 3, 132, 138, 6, 0, 129, 0, 5})            // b BETWEEN -0 AND +Inf AND a >= MinInt64+1
	f.Add(int64(4), []byte{3, 3, 1, 2, 2, 64, 0, 4, 3, 134, 0, 0, 7, 128, 0, 1}) // a > 0.0 AND b < 5e-324 AND NaN <= b
	f.Add(int64(5), []byte{1, 2, 1, 1, 0, 70, 0, 4, 3, 60, 0, 0, 1})             // a > 6 OR b < -1
	f.Add(int64(6), []byte{2, 3, 0, 0, 1, 128, 0, 2, 2})                         // NOT (b = NaN)
	f.Add(int64(7), []byte{0, 1, 2, 0, 0, 64, 0, 5, 3})                          // a >= 0 AND a + 1 > b
	schema := value.TRecord(value.F("a", value.TInt), value.F("b", value.TFloat))
	ops := []Op{OpLt, OpLe, OpEq, OpNe, OpGt, OpGe}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		b := shapeBytes(shape)
		r := rand.New(rand.NewSource(seed))
		n := 65 + int(b.next())*2
		nullMode := b.next() % 4
		nullWord := r.Intn((n + 63) / 64)
		cols := []*store.Vec{{Kind: value.Int}, {Kind: value.Float}}
		rows := make([]Row, n)
		for i := range rows {
			a := value.VInt(int64(r.Intn(129) - 64))
			if r.Intn(4) == 0 {
				a = value.VInt(edgeInts[r.Intn(len(edgeInts))])
			}
			bv := value.VFloat(float64(r.Intn(129)-64) / 4)
			if r.Intn(4) == 0 {
				bv = value.VFloat(edgeFloats[r.Intn(len(edgeFloats))])
			}
			for c, v := range []*value.Value{&a, &bv} {
				switch {
				case nullMode == 1 && i/64 == nullWord && r.Intn(2) == 0,
					nullMode == 2 && r.Intn(32) == 0,
					nullMode == 3 && c == 0 && r.Intn(8) == 0:
					*v = value.VNull
				}
			}
			rows[i] = Row{a, bv}
			cols[0].AppendVal(a)
			cols[1].AppendVal(bv)
		}
		var sel []int32
		switch b.next() % 3 {
		case 0:
			sel = fullSel(n)
		case 1:
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					sel = append(sel, int32(i))
				}
			}
		default:
			lo := r.Intn(n)
			for i := lo; i < lo+r.Intn(n-lo+1); i++ {
				sel = append(sel, int32(i))
			}
		}
		var conj []Expr
		for k := 1 + int(b.next()%4); k > 0; k-- {
			form := b.next()
			col := C([]string{"a", "b"}[form&1])
			float := form&2 != 0
			lo, hi := L(b.lit(float)), L(b.lit(float))
			op := b.next() % 7
			switch {
			case op == 6:
				conj = append(conj, Between(col, lo, hi))
			case form&4 != 0: // literal on the left: the operator flips
				conj = append(conj, Cmp(ops[op], lo, col))
			default:
				conj = append(conj, Cmp(ops[op], col, lo))
			}
		}
		pred := And(conj...)
		switch b.next() % 4 {
		case 1:
			pred = Or(conj...)
		case 2:
			pred = &Not{E: pred}
		case 3:
			pred = And(pred, Cmp(OpGt, &Bin{Op: OpAdd, L: C("a"), R: L(1)}, C("b")))
		}
		vf, err := CompileVecFilter(pred, schema)
		if err != nil {
			t.Fatalf("%s: %v", pred.Canonical(), err)
		}
		rowPred, err := CompilePredicate(pred, schema)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for _, i := range sel {
			if rowPred(rows[i]) {
				want = append(want, i)
			}
		}
		got := vf.Apply(cols, sel)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s over %d rows: kernels keep %v, row predicate %v", pred.Canonical(), n, got, want)
		}
	})
}

var benchSink int

// BenchmarkVecFilter times one range kernel over a batch of uniformly drawn
// values, so the kept/dropped outcome is unpredictable: int and float
// columns, a NULL-free selection and one whose null words each hold a NULL,
// at 10, 50 and 90 % selectivity. A float column runs both range kernels: a
// closed range admits NaN (keepFltRangeNaN), a strict one, a > lo AND
// a < hi, does not (keepFltRange). The rest case is a chain with one
// conjunct the typed tests do not take, over nine int columns: c0 > 10,
// then c1 + 1 > 5 on the boxed rows c0 kept. ns/row is per input row and
// includes refilling the selection (a 4 KB copy); an op is one batch.
func BenchmarkVecFilter(b *testing.B) {
	const n = store.BatchRows
	r := rand.New(rand.NewSource(1))
	full := fullSel(n)
	run := func(name string, vf *VecFilter, cols []*store.Vec) {
		b.Run(name, func(b *testing.B) {
			sel := make([]int32, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(sel, full)
				benchSink = len(vf.Apply(cols, sel))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
	for _, kind := range []value.Kind{value.Int, value.Float} {
		for _, nulls := range []bool{false, true} {
			col := &store.Vec{Kind: kind}
			for i := 0; i < n; i++ {
				x := r.Intn(100)
				switch {
				case nulls && i%64 == 5:
					col.AppendVal(value.VNull)
				case kind == value.Int:
					col.AppendVal(value.VInt(int64(x)))
				default:
					col.AppendVal(value.VFloat(float64(x) + 0.5))
				}
			}
			schema := value.TRecord(value.F("a", &value.Type{Kind: kind}))
			for _, pct := range []int{10, 50, 90} {
				preds := map[string]Expr{"": Between(C("a"), L(0), L(pct-1))}
				if kind == value.Float {
					preds = map[string]Expr{
						"":        Between(C("a"), L(0.0), L(float64(pct))),
						"strict/": And(Cmp(OpGt, C("a"), L(0.0)), Cmp(OpLt, C("a"), L(float64(pct)))),
					}
				}
				for _, form := range []string{"", "strict/"} {
					pred, ok := preds[form]
					if !ok {
						continue
					}
					vf, err := CompileVecFilter(pred, schema)
					if err != nil {
						b.Fatal(err)
					}
					run(fmt.Sprintf("%s/%snulls=%v/sel=%d", kind, form, nulls, pct), vf, []*store.Vec{col})
				}
			}
		}
	}
	fields := make([]value.Field, 9)
	cols := make([]*store.Vec, 9)
	for c := range cols {
		fields[c] = value.F(fmt.Sprintf("c%d", c), value.TInt)
		cols[c] = &store.Vec{Kind: value.Int}
		for i := 0; i < n; i++ {
			cols[c].AppendVal(value.VInt(int64(r.Intn(20))))
		}
	}
	vf, err := CompileVecFilter(And(Cmp(OpGt, C("c0"), L(10)),
		Cmp(OpGt, &Bin{Op: OpAdd, L: C("c1"), R: L(1)}, L(5))), value.TRecord(fields...))
	if err != nil {
		b.Fatal(err)
	}
	run("rest/9ints", vf, cols)
}
