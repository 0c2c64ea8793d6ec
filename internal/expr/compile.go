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
		inner, err := compile(x.E, schema)
		if err != nil {
			return nil, err
		}
		return func(r Row) value.Value {
			v := inner(r)
			if v.Kind == value.Null {
				return value.VNull
			}
			return value.VBool(!v.Truthy())
		}, nil

	case *Bin:
		l, err := compile(x.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := compile(x.R, schema)
		if err != nil {
			return nil, err
		}
		return compileBin(x, l, r, schema)
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

func compileBin(x *Bin, l, r Evaluator, schema *value.Type) (Evaluator, error) {
	lt, _ := x.L.Type(schema)
	rt, _ := x.R.Type(schema)
	switch {
	case x.Op.IsLogic():
		if x.Op == OpAnd {
			return func(row Row) value.Value {
				lv := l(row)
				if lv.Kind != value.Null && !lv.Truthy() {
					return value.VBool(false)
				}
				rv := r(row)
				if rv.Kind != value.Null && !rv.Truthy() {
					return value.VBool(false)
				}
				if lv.Kind == value.Null || rv.Kind == value.Null {
					return value.VNull
				}
				return value.VBool(true)
			}, nil
		}
		return func(row Row) value.Value {
			lv := l(row)
			if lv.Kind != value.Null && lv.Truthy() {
				return value.VBool(true)
			}
			rv := r(row)
			if rv.Kind != value.Null && rv.Truthy() {
				return value.VBool(true)
			}
			if lv.Kind == value.Null || rv.Kind == value.Null {
				return value.VNull
			}
			return value.VBool(false)
		}, nil

	case x.Op.IsComparison():
		// Fast paths for the common typed comparisons.
		if lt.Kind == value.Int && rt.Kind == value.Int {
			return compareInt(x.Op, l, r), nil
		}
		if lt.IsNumeric() && rt.IsNumeric() {
			return compareFloat(x.Op, l, r), nil
		}
		op := x.Op
		return func(row Row) value.Value {
			lv, rv := l(row), r(row)
			if lv.Kind == value.Null || rv.Kind == value.Null {
				return value.VNull
			}
			return cmpResult(op, lv.Compare(rv))
		}, nil

	default:
		return arith(x.Op, lt, rt, l, r), nil
	}
}

func compareInt(op Op, l, r Evaluator) Evaluator {
	return func(row Row) value.Value {
		lv, rv := l(row), r(row)
		if lv.Kind == value.Null || rv.Kind == value.Null {
			return value.VNull
		}
		a, b := lv.I, rv.I
		var ok bool
		switch op {
		case OpEq:
			ok = a == b
		case OpNe:
			ok = a != b
		case OpLt:
			ok = a < b
		case OpLe:
			ok = a <= b
		case OpGt:
			ok = a > b
		case OpGe:
			ok = a >= b
		}
		return value.VBool(ok)
	}
}

// compareFloat compares numbers as floats, by the rule every filter path
// follows — the batch kernels, the pushdown tests below parsing and this
// evaluator: a NaN is neither below nor above any number, so it compares
// equal to it. It passes =, <= and >= and fails <, > and <>, whatever the
// shape of the predicate around the comparison.
func compareFloat(op Op, l, r Evaluator) Evaluator {
	return func(row Row) value.Value {
		lv, rv := l(row), r(row)
		if lv.Kind == value.Null || rv.Kind == value.Null {
			return value.VNull
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

func cmpResult(op Op, c int) value.Value {
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
	return value.VBool(ok)
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
	ev, err := compile(e, schema)
	if err != nil {
		return nil, err
	}
	return func(r Row) bool {
		v := ev(r)
		return v.Kind == value.Bool && v.B
	}, nil
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
