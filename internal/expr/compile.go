package expr

import (
	"fmt"

	"recache/internal/value"
)

// Row is the runtime representation of one input record: the field values of
// a record, aligned with the input schema's fields. Flat (post-unnest or
// columnar-cache) rows are simply slices of leaf values.
type Row = []value.Value

// Evaluator computes an expression over a row.
type Evaluator func(Row) value.Value

// Predicate decides a boolean expression over a row.
type Predicate func(Row) bool

// Compile specializes e against the input schema, resolving every column
// reference to a direct index chain. The returned closure runs without any
// name lookups or type dispatch on the hot path — the Go analogue of the
// LLVM code generation performed by Proteus.
func Compile(e Expr, schema *value.Type) (Evaluator, error) {
	if _, err := e.Type(schema); err != nil {
		return nil, err
	}
	return compile(e, schema)
}

func compile(e Expr, schema *value.Type) (Evaluator, error) {
	switch x := e.(type) {
	case *Lit:
		v := x.V
		return func(Row) value.Value { return v }, nil

	case *Col:
		_, chain, err := resolveCol(schema, x.Path)
		if err != nil {
			return nil, err
		}
		if len(chain) == 1 {
			i := chain[0]
			return func(r Row) value.Value {
				if i >= len(r) {
					return value.VNull
				}
				return r[i]
			}, nil
		}
		idxs := chain
		return func(r Row) value.Value {
			cur := r
			for k := 0; k < len(idxs)-1; k++ {
				i := idxs[k]
				if i >= len(cur) || cur[i].Kind != value.Record {
					return value.VNull
				}
				cur = cur[i].L
			}
			i := idxs[len(idxs)-1]
			if i >= len(cur) {
				return value.VNull
			}
			return cur[i]
		}, nil

	case *Not:
		return triValue(compileTri(x, schema))

	case *Bin:
		if x.Op.IsLogic() || x.Op.IsComparison() {
			return triValue(compileTri(x, schema))
		}
		l, err := compile(x.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := compile(x.R, schema)
		if err != nil {
			return nil, err
		}
		lt, _ := x.L.Type(schema)
		rt, _ := x.R.Type(schema)
		return arith(x.Op, lt, rt, l, r), nil
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

// tri is a boolean expression's value in SQL's three-valued logic. The
// comparisons, NOT, AND and OR compile to closures returning it, which a
// predicate tests as it is and an expression in value position boxes once,
// at its root (triValue): a conjunct chain passes one byte between its
// nodes, not a value.Value.
type tri int8

const (
	triFalse tri = iota
	triTrue
	triNull
)

// triOf is v's truth: null, or whether it counts as true.
func triOf(v value.Value) tri {
	switch {
	case v.Kind == value.Null:
		return triNull
	case v.Truthy():
		return triTrue
	}
	return triFalse
}

// triValue boxes a compiled boolean as an Evaluator.
func triValue(t func(Row) tri, err error) (Evaluator, error) {
	if err != nil {
		return nil, err
	}
	return func(r Row) value.Value {
		switch t(r) {
		case triTrue:
			return value.VBool(true)
		case triFalse:
			return value.VBool(false)
		}
		return value.VNull
	}, nil
}

// compileTri compiles a boolean expression: a comparison, NOT, AND and OR
// natively, anything else (a boolean column or literal) by the truth of
// its value.
func compileTri(e Expr, schema *value.Type) (func(Row) tri, error) {
	switch x := e.(type) {
	case *Not:
		inner, err := compileTri(x.E, schema)
		if err != nil {
			return nil, err
		}
		return func(r Row) tri {
			switch inner(r) {
			case triTrue:
				return triFalse
			case triFalse:
				return triTrue
			}
			return triNull
		}, nil
	case *Bin:
		switch {
		case x.Op.IsLogic():
			l, err := compileTri(x.L, schema)
			if err != nil {
				return nil, err
			}
			r, err := compileTri(x.R, schema)
			if err != nil {
				return nil, err
			}
			// AND is false if either side is, OR true if either side is;
			// otherwise a null side makes the result null.
			decisive, other := triFalse, triTrue
			if x.Op == OpOr {
				decisive, other = triTrue, triFalse
			}
			return func(row Row) tri {
				lv := l(row)
				if lv == decisive {
					return decisive
				}
				rv := r(row)
				if rv == decisive {
					return decisive
				}
				if lv == triNull || rv == triNull {
					return triNull
				}
				return other
			}, nil
		case x.Op.IsComparison():
			return compileCmp(x, schema)
		}
	}
	ev, err := compile(e, schema)
	if err != nil {
		return nil, err
	}
	return func(r Row) tri { return triOf(ev(r)) }, nil
}

// compileCmp compiles a comparison, with fast paths for the common typed
// ones.
func compileCmp(x *Bin, schema *value.Type) (func(Row) tri, error) {
	l, err := compile(x.L, schema)
	if err != nil {
		return nil, err
	}
	r, err := compile(x.R, schema)
	if err != nil {
		return nil, err
	}
	lt, _ := x.L.Type(schema)
	rt, _ := x.R.Type(schema)
	if lt.Kind == value.Int && rt.Kind == value.Int {
		return compareInt(x.Op, l, r), nil
	}
	if lt.IsNumeric() && rt.IsNumeric() {
		return compareFloat(x.Op, l, r), nil
	}
	op := x.Op
	return func(row Row) tri {
		lv, rv := l(row), r(row)
		if lv.Kind == value.Null || rv.Kind == value.Null {
			return triNull
		}
		return cmpResult(op, lv.Compare(rv))
	}, nil
}

func compareInt(op Op, l, r Evaluator) func(Row) tri {
	return func(row Row) tri {
		lv, rv := l(row), r(row)
		if lv.Kind == value.Null || rv.Kind == value.Null {
			return triNull
		}
		a, b := lv.I, rv.I
		c := 0
		switch {
		case a < b:
			c = -1
		case a > b:
			c = 1
		}
		return cmpResult(op, c)
	}
}

// compareFloat compares numbers as floats, by the rule every filter path
// follows — the batch kernels, the pushdown tests below parsing and this
// evaluator: a NaN is neither below nor above any number, so it compares
// equal to it. It passes =, <= and >= and fails <, > and <>, whatever the
// shape of the predicate around the comparison.
func compareFloat(op Op, l, r Evaluator) func(Row) tri {
	return func(row Row) tri {
		lv, rv := l(row), r(row)
		if lv.Kind == value.Null || rv.Kind == value.Null {
			return triNull
		}
		a, b := lv.AsFloat(), rv.AsFloat()
		c := 0
		switch {
		case a < b:
			c = -1
		case a > b:
			c = 1
		}
		return cmpResult(op, c)
	}
}

func cmpResult(op Op, c int) tri {
	var ok bool
	switch op {
	case OpEq:
		ok = c == 0
	case OpNe:
		ok = c != 0
	case OpLt:
		ok = c < 0
	case OpLe:
		ok = c <= 0
	case OpGt:
		ok = c > 0
	case OpGe:
		ok = c >= 0
	}
	if ok {
		return triTrue
	}
	return triFalse
}

func arith(op Op, lt, rt *value.Type, l, r Evaluator) Evaluator {
	intOut := lt.Kind == value.Int && rt.Kind == value.Int && op != OpDiv
	return func(row Row) value.Value {
		lv, rv := l(row), r(row)
		if lv.Kind == value.Null || rv.Kind == value.Null {
			return value.VNull
		}
		if intOut {
			a, b := lv.I, rv.I
			switch op {
			case OpAdd:
				return value.VInt(a + b)
			case OpSub:
				return value.VInt(a - b)
			case OpMul:
				return value.VInt(a * b)
			}
		}
		a, b := lv.AsFloat(), rv.AsFloat()
		switch op {
		case OpAdd:
			return value.VFloat(a + b)
		case OpSub:
			return value.VFloat(a - b)
		case OpMul:
			return value.VFloat(a * b)
		case OpDiv:
			if b == 0 {
				return value.VNull
			}
			return value.VFloat(a / b)
		}
		return value.VNull
	}
}

// CompilePredicate compiles a boolean expression to a Predicate; null
// results are treated as false (SQL three-valued logic at the filter). It
// runs the generic evaluator: the filters that run at volume — conjunct
// chains of column-vs-literal comparisons — run as typed batch kernels
// (CompileVecFilter) or below parsing (ExtractPushdown) instead, so a row
// predicate is what a residual, a computed filter or a test tests.
func CompilePredicate(e Expr, schema *value.Type) (Predicate, error) {
	if e == nil {
		return func(Row) bool { return true }, nil
	}
	t, err := e.Type(schema)
	if err != nil {
		return nil, err
	}
	if t.Kind != value.Bool {
		return nil, fmt.Errorf("expr: predicate must be boolean, got %s", t)
	}
	t2, err := compileTri(e, schema)
	if err != nil {
		return nil, err
	}
	return func(r Row) bool { return t2(r) == triTrue }, nil
}

// cmpSpec is one fused conjunct: row[idx] op constant.
type cmpSpec struct {
	idx     int
	op      Op
	kind    value.Kind // Int, Float or String comparison
	colKind value.Kind // static column kind (the vector a kernel reads)
	i       int64
	f       float64
	s       string
	asFlt   bool // compare as float (mixed int/float operands)
}

// cmpSpecOf recognizes one <col> <cmp> <literal> conjunct (either operand
// order) whose column resolves to a single row slot of Int/Float/String
// kind. It is the shared recognizer behind the vectorized filter kernels
// and the scan pushdown extractor.
func cmpSpecOf(c Expr, schema *value.Type) (cmpSpec, *Col, bool) {
	b, ok := c.(*Bin)
	if !ok || !b.Op.IsComparison() {
		return cmpSpec{}, nil, false
	}
	col, lit, op := matchColLit(b)
	if col == nil {
		return cmpSpec{}, nil, false
	}
	ct, chain, err := resolveCol(schema, col.Path)
	if err != nil || len(chain) != 1 {
		return cmpSpec{}, nil, false
	}
	sp := cmpSpec{idx: chain[0], op: op, colKind: ct.Kind}
	switch {
	case ct.Kind == value.Int && lit.V.Kind == value.Int:
		sp.kind, sp.i = value.Int, lit.V.I
	case ct.IsNumeric() && (lit.V.Kind == value.Int || lit.V.Kind == value.Float):
		sp.kind, sp.f, sp.asFlt = value.Float, lit.V.AsFloat(), true
	case ct.Kind == value.String && lit.V.Kind == value.String:
		sp.kind, sp.s = value.String, lit.V.S
	default:
		return cmpSpec{}, nil, false
	}
	return sp, col, true
}

// extractCmpSpecs recognizes AND-chains of <col> <cmp> <literal> where the
// column resolves to a single row slot — the shape the vectorized filter
// kernels accept.
func extractCmpSpecs(e Expr, schema *value.Type) ([]cmpSpec, bool) {
	conjuncts := Conjuncts(e)
	specs := make([]cmpSpec, 0, len(conjuncts))
	for _, c := range conjuncts {
		sp, _, ok := cmpSpecOf(c, schema)
		if !ok {
			return nil, false
		}
		specs = append(specs, sp)
	}
	return specs, true
}

// Eval is a convenience for tests and one-off evaluation: compile and run.
func Eval(e Expr, schema *value.Type, row Row) (value.Value, error) {
	ev, err := Compile(e, schema)
	if err != nil {
		return value.VNull, err
	}
	return ev(row), nil
}
