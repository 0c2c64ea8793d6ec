package expr_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/reference"
	"recache/internal/store"
	"recache/internal/value"
)

// TestPredicateShapeParity holds a predicate's answer independent of the
// shape it is written in: on rows with NaN and null, P, P OR <false> and
// P AND <true> keep the same rows through every evaluator — the row
// predicate (CompilePredicate), the batch kernels (CompileVecFilter), the
// pushdown below parsing (Pushdown.TestRow, its residual through
// CompilePredicate) and the reference evaluator. The three shapes take
// different paths: P and P AND <true> are conjunct chains, which the typed
// kernels and the pushdown accept, and P OR <false> is not, so it runs on
// the generic evaluator everywhere. A NaN compares equal to every number on
// all of them.
func TestPredicateShapeParity(t *testing.T) {
	schema := value.TRecord(value.FOpt("x", value.TFloat), value.FOpt("n", value.TInt), value.F("z", value.TString))
	var rows [][]value.Value
	for _, x := range []value.Value{value.VFloat(math.NaN()), value.VNull, value.VFloat(0.5), value.VFloat(1),
		value.VFloat(2), value.VFloat(math.Inf(-1)), value.VFloat(math.Inf(1))} {
		for _, n := range []value.Value{value.VNull, value.VInt(1), value.VInt(3)} {
			rows = append(rows, []value.Value{x, n, value.VString("a")})
		}
	}
	never := expr.Cmp(expr.OpEq, expr.C("z"), expr.L("zz"))  // false on every row
	always := expr.Cmp(expr.OpNe, expr.C("z"), expr.L("zz")) // true on every row
	var preds []expr.Expr
	for _, op := range []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe} {
		for _, lit := range []any{1.0, math.NaN(), 1} {
			preds = append(preds, expr.Cmp(op, expr.C("x"), expr.L(lit)))
		}
		preds = append(preds, expr.Cmp(op, expr.C("n"), expr.L(1.5)))
	}
	preds = append(preds,
		expr.And(expr.Cmp(expr.OpGe, expr.C("x"), expr.L(2.0)), expr.Cmp(expr.OpLe, expr.C("x"), expr.L(1.0))),
		expr.And(expr.Cmp(expr.OpGt, expr.C("x"), expr.L(0.0)), expr.Cmp(expr.OpLe, expr.C("n"), expr.L(2))),
	)
	for _, p := range preds {
		var want []int
		for _, shape := range []expr.Expr{p, expr.Or(p, never), expr.And(p, always)} {
			for name, eval := range map[string]func(expr.Expr) ([]int, error){
				"CompilePredicate": func(e expr.Expr) ([]int, error) { return rowPredicate(e, schema, rows) },
				"CompileVecFilter": func(e expr.Expr) ([]int, error) { return vecFilter(e, schema, rows) },
				"Pushdown":         func(e expr.Expr) ([]int, error) { return pushdown(e, schema, rows) },
				"reference":        func(e expr.Expr) ([]int, error) { return referenceRun(e, schema, rows) },
			} {
				got, err := eval(shape)
				if err != nil {
					t.Fatalf("%s %s: %v", name, shape.Canonical(), err)
				}
				if want == nil {
					want = got
				} else if !slices.Equal(got, want) {
					t.Errorf("%s keeps rows %v of %s, but %v of %s", name, got, shape.Canonical(), want, p.Canonical())
				}
			}
		}
	}
}

func rowPredicate(e expr.Expr, schema *value.Type, rows [][]value.Value) ([]int, error) {
	pred, err := expr.CompilePredicate(e, schema)
	if err != nil {
		return nil, err
	}
	kept := []int{}
	for i, r := range rows {
		if pred(r) {
			kept = append(kept, i)
		}
	}
	return kept, nil
}

func vecFilter(e expr.Expr, schema *value.Type, rows [][]value.Value) ([]int, error) {
	f, err := expr.CompileVecFilter(e, schema)
	if err != nil {
		return nil, err
	}
	cols := make([]*store.Vec, len(schema.Fields))
	for fi, fd := range schema.Fields {
		cols[fi] = store.NewVec(fd.Type.Kind)
		for _, r := range rows {
			cols[fi].AppendVal(r[fi])
		}
	}
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	kept := []int{}
	for _, i := range f.Apply(cols, sel) {
		kept = append(kept, int(i))
	}
	return kept, nil
}

func pushdown(e expr.Expr, schema *value.Type, rows [][]value.Value) ([]int, error) {
	pd, residual := expr.ExtractPushdown(e, schema)
	res, err := expr.CompilePredicate(residual, schema)
	if err != nil {
		return nil, err
	}
	kept := []int{}
	for i, r := range rows {
		if (pd == nil || pd.TestRow(r)) && res(r) {
			kept = append(kept, i)
		}
	}
	return kept, nil
}

func referenceRun(e expr.Expr, schema *value.Type, rows [][]value.Value) ([]int, error) {
	ds := &plan.Dataset{Name: "t", Format: plan.FormatCSV, Provider: rowsProvider{schema, rows}}
	out, err := reference.Run(&plan.Select{Pred: e, Child: &plan.Scan{DS: ds}}, nil)
	if err != nil {
		return nil, err
	}
	kept := []int{}
	for _, r := range out {
		i := slices.IndexFunc(rows, func(row []value.Value) bool { return fmt.Sprint(row) == fmt.Sprint(r) })
		kept = append(kept, i)
	}
	return kept, nil
}

// rowsProvider serves rows as a dataset; row i sits at offset i.
type rowsProvider struct {
	schema *value.Type
	rows   [][]value.Value
}

func (p rowsProvider) Schema() *value.Type { return p.schema }
func (p rowsProvider) NumRecords() int     { return len(p.rows) }
func (p rowsProvider) SizeBytes() int64    { return int64(len(p.rows)) }

func (p rowsProvider) Scan(_ []value.Path, fn plan.ScanFunc) error {
	for i, r := range p.rows {
		if err := fn(value.VRecord(r...), int64(i), func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

func (p rowsProvider) ScanOffsets(offsets []int64, _ []value.Path, fn plan.ScanFunc) error {
	for _, off := range offsets {
		if err := fn(value.VRecord(p.rows[off]...), off, func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}
