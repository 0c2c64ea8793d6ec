// Package reference is a record-at-a-time evaluator of logical plans: the
// oracle the parity tests hold the batch executor to. It shares no kernel
// with internal/exec. It reads every dataset through ScanProvider.Scan,
// flattens nested records with value.FlattenRecord, evaluates expressions
// with expr.Compile, joins through a Go map keyed by the key values and
// folds aggregates with AggState over groups sorted by their rendered keys.
//
// Only tests import it: a non-test package that does fails CI.
package reference

import (
	"fmt"
	"sort"
	"strings"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/value"
)

// Run evaluates a plan before any cache rewrite (Materialize nodes pass
// their input through) and returns its rows, each a fresh slice. needed
// maps a dataset to the paths its scans decode, as exec.Deps.Needed does;
// a dataset it does not name is decoded whole.
func Run(n plan.Node, needed map[string][]value.Path) ([][]value.Value, error) {
	r := runner{needed}
	return r.run(n)
}

type runner struct{ needed map[string][]value.Path }

func (r runner) run(n plan.Node) ([][]value.Value, error) {
	switch x := n.(type) {
	case *plan.Scan:
		var rows [][]value.Value
		err := x.DS.Provider.Scan(r.needed[x.DS.Name], func(rec value.Value, _ int64, _ func() error) error {
			rows = append(rows, append([]value.Value(nil), rec.L...))
			return nil
		})
		return rows, err
	case *plan.Materialize:
		return r.run(x.Child)
	case *plan.Select:
		return r.filter(x)
	case *plan.Unnest:
		in, err := r.run(x.Child)
		if err != nil {
			return nil, err
		}
		schema := x.Child.OutSchema()
		cols, err := value.LeafColumns(schema)
		if err != nil {
			return nil, err
		}
		var rows [][]value.Value
		for _, row := range in {
			rows = append(rows, value.FlattenRecord(value.VRecord(row...), schema, cols)...)
		}
		return rows, nil
	case *plan.Project:
		return r.project(x)
	case *plan.Join:
		return r.join(x)
	case *plan.Aggregate:
		return r.aggregate(x)
	}
	return nil, fmt.Errorf("reference: cannot evaluate %T", n)
}

func (r runner) filter(s *plan.Select) ([][]value.Value, error) {
	in, err := r.run(s.Child)
	if err != nil || s.Pred == nil {
		return in, err
	}
	pred, err := expr.CompilePredicate(s.Pred, s.Child.OutSchema())
	if err != nil {
		return nil, err
	}
	out := in[:0]
	for _, row := range in {
		if pred(row) {
			out = append(out, row)
		}
	}
	return out, nil
}

func (r runner) project(p *plan.Project) ([][]value.Value, error) {
	in, err := r.run(p.Child)
	if err != nil {
		return nil, err
	}
	evals, err := compileAll(p.Exprs, p.Child.OutSchema())
	if err != nil {
		return nil, err
	}
	for i, row := range in {
		out := make([]value.Value, len(evals))
		for j, ev := range evals {
			out[j] = ev(row)
		}
		in[i] = out
	}
	return in, nil
}

func compileAll(es []expr.Expr, schema *value.Type) ([]expr.Evaluator, error) {
	evals := make([]expr.Evaluator, len(es))
	for i, e := range es {
		var err error
		if evals[i], err = expr.Compile(e, schema); err != nil {
			return nil, err
		}
	}
	return evals, nil
}

// JoinKey is a join key's map key: both-int keys as int64, a numeric mix as
// float64, strings and bools as themselves, anything else rendered. A NULL
// key joins nothing.
func JoinKey(v value.Value, bothInt, numeric bool) (any, bool) {
	switch {
	case v.Kind == value.Null:
		return nil, false
	case bothInt:
		return v.I, true
	case numeric:
		return v.AsFloat(), true
	case v.Kind == value.String:
		return v.S, true
	case v.Kind == value.Bool:
		return v.B, true
	}
	return v.String(), true
}

// join hashes the left input and probes it with the right, in the right's
// order, a key's left rows in the left's order.
func (r runner) join(j *plan.Join) ([][]value.Value, error) {
	left, err := r.run(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := r.run(j.Right)
	if err != nil {
		return nil, err
	}
	lkey, err := expr.Compile(j.LeftKey, j.Left.OutSchema())
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(j.RightKey, j.Right.OutSchema())
	if err != nil {
		return nil, err
	}
	lt, _ := j.LeftKey.Type(j.Left.OutSchema())
	rt, _ := j.RightKey.Type(j.Right.OutSchema())
	bothInt, numeric := lt.Kind == value.Int && rt.Kind == value.Int, lt.IsNumeric() && rt.IsNumeric()
	table := map[any][][]value.Value{}
	for _, row := range left {
		if k, ok := JoinKey(lkey(row), bothInt, numeric); ok {
			table[k] = append(table[k], row)
		}
	}
	var out [][]value.Value
	for _, row := range right {
		k, ok := JoinKey(rkey(row), bothInt, numeric)
		if !ok {
			continue
		}
		for _, l := range table[k] {
			out = append(out, append(append([]value.Value(nil), l...), row...))
		}
	}
	return out, nil
}

// AggState accumulates one aggregate function a value at a time.
type AggState struct {
	Fn    plan.AggFunc
	count int64
	sum   float64
	min   value.Value
	max   value.Value
	any   bool
}

// Update folds v; hasArg is false for COUNT(*), whose rows all count.
func (a *AggState) Update(v value.Value, hasArg bool) {
	if hasArg && v.Kind == value.Null {
		return
	}
	a.count++
	switch a.Fn {
	case plan.AggSum, plan.AggAvg:
		a.sum += v.AsFloat()
	case plan.AggMin:
		if !a.any || v.Compare(a.min) < 0 {
			a.min = v
		}
	case plan.AggMax:
		if !a.any || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
	a.any = true
}

// Result is the aggregate's value: NULL for a SUM, AVG, MIN or MAX that
// folded no value.
func (a *AggState) Result() value.Value {
	switch {
	case a.Fn == plan.AggCount:
		return value.VInt(a.count)
	case !a.any:
		return value.VNull
	case a.Fn == plan.AggSum:
		return value.VFloat(a.sum)
	case a.Fn == plan.AggAvg:
		return value.VFloat(a.sum / float64(a.count))
	case a.Fn == plan.AggMin:
		return a.min
	}
	return a.max
}

func (r runner) aggregate(a *plan.Aggregate) ([][]value.Value, error) {
	in, err := r.run(a.Child)
	if err != nil {
		return nil, err
	}
	schema := a.Child.OutSchema()
	groupEvals, err := compileAll(a.GroupBy, schema)
	if err != nil {
		return nil, err
	}
	argEvals := make([]expr.Evaluator, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Arg != nil {
			if argEvals[i], err = expr.Compile(s.Arg, schema); err != nil {
				return nil, err
			}
		}
	}
	type group struct {
		keys   []value.Value
		states []AggState
	}
	groups := map[string]*group{}
	if len(groupEvals) == 0 {
		groups[""] = &group{states: newStates(a.Aggs)} // an ungrouped aggregate has its row on empty input too
	}
	for _, row := range in {
		var sb strings.Builder
		keys := make([]value.Value, len(groupEvals))
		for i, ev := range groupEvals {
			keys[i] = ev(row)
			sb.WriteString(keys[i].String())
			sb.WriteByte(0)
		}
		g := groups[sb.String()]
		if g == nil {
			g = &group{keys: keys, states: newStates(a.Aggs)}
			groups[sb.String()] = g
		}
		for i, ev := range argEvals {
			if ev == nil {
				g.states[i].Update(value.VNull, false)
			} else {
				g.states[i].Update(ev(row), true)
			}
		}
	}
	order := make([]string, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	sort.Strings(order)
	out := make([][]value.Value, 0, len(order))
	for _, k := range order {
		g := groups[k]
		row := append([]value.Value(nil), g.keys...)
		for i := range g.states {
			row = append(row, g.states[i].Result())
		}
		out = append(out, row)
	}
	return out, nil
}

func newStates(specs []plan.AggSpec) []AggState {
	st := make([]AggState, len(specs))
	for i := range st {
		st[i].Fn = specs[i].Func
	}
	return st
}
