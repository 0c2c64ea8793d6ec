package exec

import (
	"fmt"
	"sort"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// aggSource is an Aggregate: it folds its input's batches — GROUP BY keys
// resolved per selected row through a typed group index, with no per-row
// string keys and no boxing; the ungrouped fold takes whole batches — and
// hands its result on as one batch (a window per store.BatchRows groups).
// Arguments and group keys are columns of an evalSource over the input:
// passed through when they are plain column references, computed by the
// generic kernel otherwise.
type aggSource struct {
	src   *evalSource // group keys first, then the arguments
	gcols []int
	args  []int // per aggregate: its argument's column; -1 for COUNT(*)
	specs []plan.AggSpec
	kinds []value.Kind // the output columns'
}

func compileAggregate(a *plan.Aggregate, deps Deps) (*aggSource, error) {
	child, err := compile(a.Child, deps)
	if err != nil {
		return nil, err
	}
	s := &aggSource{gcols: make([]int, len(a.GroupBy)), args: make([]int, len(a.Aggs)), specs: a.Aggs}
	exprs := append([]expr.Expr(nil), a.GroupBy...)
	for i := range s.gcols {
		s.gcols[i] = i
	}
	for i, sp := range a.Aggs {
		s.args[i] = -1
		if sp.Arg != nil {
			s.args[i] = len(exprs)
			exprs = append(exprs, sp.Arg)
		}
	}
	if s.src, err = newEvalSource(child, a.Child.OutSchema(), exprs); err != nil {
		return nil, err
	}
	for _, f := range a.OutSchema().Fields {
		s.kinds = append(s.kinds, f.Type.Kind)
	}
	return s, nil
}

func (s *aggSource) info(Deps) (int64, bool) { return 1, true }

// open starts nothing: the input is drained at the first Next.
func (s *aggSource) open(ctx *qctx) (vecIter, error) {
	in, err := s.src.open(ctx)
	if err != nil {
		return nil, err
	}
	// SUM/AVG kernels read numeric vectors.
	for i, sp := range s.specs {
		if s.args[i] < 0 || (sp.Func != plan.AggSum && sp.Func != plan.AggAvg) {
			continue
		}
		if k := in.Kinds()[s.args[i]]; k != value.Int && k != value.Float {
			return nil, fmt.Errorf("exec: %s over a %s column", sp.Func, k)
		}
	}
	return &aggIter{s: s, in: in, ctx: ctx}, nil
}

// aggIter folds its input at the first Next, then serves the result.
type aggIter struct {
	s     *aggSource
	in    vecIter // nil once drained
	ctx   *qctx
	err   error
	cols  []*store.Vec
	lo, n int
	sel   []int32
}

func (it *aggIter) Kinds() []value.Kind { return it.s.kinds }
func (it *aggIter) Stable() bool        { return false }
func (it *aggIter) Cols() []*store.Vec  { return nil }
func (it *aggIter) Close(*qctx) error   { return it.err }

func (it *aggIter) Next() ([]*store.Vec, []int32, bool) {
	if it.in != nil {
		it.err = it.run()
		it.in = nil
	}
	if it.err != nil || it.lo >= it.n {
		return nil, nil, false
	}
	hi := min(it.lo+store.BatchRows, it.n)
	it.sel = it.sel[:0]
	for r := it.lo; r < hi; r++ {
		it.sel = append(it.sel, int32(r))
	}
	it.lo = hi
	return it.cols, it.sel, true
}

func (it *aggIter) newAcc(i int) vaggAcc {
	a := vaggAcc{fn: it.s.specs[i].Func, arg: it.s.args[i]}
	if a.arg >= 0 {
		a.kind = it.in.Kinds()[a.arg]
	}
	return a
}

// run drains the input and lays the result out as its columns.
func (it *aggIter) run() error {
	s := it.s
	it.cols = make([]*store.Vec, len(s.kinds))
	for i, k := range s.kinds {
		it.cols[i] = store.NewVec(k)
	}
	if len(s.gcols) == 0 {
		accs := make([]vaggAcc, len(s.specs))
		for i := range accs {
			accs[i] = it.newAcc(i)
		}
		for {
			cols, sel, ok := it.in.Next()
			if !ok {
				break
			}
			for i := range accs {
				accs[i].updateBatch(cols, sel)
			}
		}
		if err := it.in.Close(it.ctx); err != nil {
			return err
		}
		for i := range accs {
			it.cols[i].AppendVal(accs[i].result())
		}
		it.n = 1
		return nil
	}
	gi := newGroupIndex(s.gcols, it.in.Kinds())
	accs := make([][]vaggAcc, len(s.specs))
	for {
		cols, sel, ok := it.in.Next()
		if !ok {
			break
		}
		if len(sel) == 0 {
			continue
		}
		gidx := gi.resolve(cols, sel)
		for ai := range accs {
			for len(accs[ai]) < len(gi.groups) {
				accs[ai] = append(accs[ai], it.newAcc(ai))
			}
			foldGroups(accs[ai], cols, sel, gidx)
		}
	}
	if err := it.in.Close(it.ctx); err != nil {
		return err
	}
	// Deterministic output order: by the groups' rendered keys.
	order := make([]int32, len(gi.groups))
	for g := range order {
		order[g] = int32(g)
	}
	sort.Slice(order, func(i, j int) bool {
		return gi.groups[order[i]].sortKey < gi.groups[order[j]].sortKey
	})
	for _, g := range order {
		for i, k := range gi.groups[g].keys {
			it.cols[i].AppendVal(k)
		}
		for ai := range accs {
			it.cols[len(s.gcols)+ai].AppendVal(accs[ai][g].result())
		}
	}
	it.n = len(order)
	return nil
}

// vaggAcc accumulates one aggregate over typed vectors, with SQL's null and
// empty-input semantics and a float sum's rows added in selection order, as
// a row-at-a-time fold adds them (the reference evaluator's AggState, which
// FuzzVecAggregate holds it to).
type vaggAcc struct {
	fn    plan.AggFunc
	arg   int // batch column slot of the argument; -1 for COUNT(*)
	kind  value.Kind
	count int64 // values folded (rows for COUNT(*)); 0 makes SUM, AVG, MIN and MAX NULL
	sum   float64
	mi    int64
	mf    float64
	ms    string
	mb    bool
	mv    value.Value // a boxed argument's extreme
}

// updateBatch folds a whole selection batch into the accumulator. The kind
// dispatch and the null-word test happen once per batch, and each typed
// loop runs on locals written back once: a field behind the receiver is
// stored and reloaded every row, and a float SUM would wait on that round
// trip at every add.
func (a *vaggAcc) updateBatch(cols []*store.Vec, sel []int32) {
	if a.arg < 0 { // COUNT(*): every selected row counts
		a.count += int64(len(sel))
		return
	}
	v := cols[a.arg]
	var nulls *store.Bitmap
	if v.Nulls.AnySel(sel) {
		nulls = &v.Nulls
	}
	switch {
	case a.fn == plan.AggCount:
		n := int64(len(sel))
		if nulls != nil {
			for _, r := range sel {
				if nulls.Get(int(r)) {
					n--
				}
			}
		}
		a.count += n
	case (a.fn == plan.AggSum || a.fn == plan.AggAvg) && v.Kind == value.Int:
		a.count, a.sum = foldSum(v.Ints, sel, nulls, a.count, a.sum)
	case a.fn == plan.AggSum || a.fn == plan.AggAvg:
		a.count, a.sum = foldSum(v.Floats, sel, nulls, a.count, a.sum)
	case v.Kind == value.Int:
		a.count, a.mi = foldExtreme(v.Ints, sel, nulls, a.fn == plan.AggMin, a.count, a.mi)
	case v.Kind == value.Float:
		a.count, a.mf = foldExtreme(v.Floats, sel, nulls, a.fn == plan.AggMin, a.count, a.mf)
	default:
		for _, r := range sel {
			if nulls == nil || !nulls.Get(int(r)) {
				a.updateRow(v, r)
			}
		}
	}
}

// foldSum adds the non-NULL values xs holds at sel to a running count and
// sum, in selection order (so a float sum is bit-identical to the row
// fold's); nulls is nil when the selection's null words hold none.
func foldSum[T int64 | float64](xs []T, sel []int32, nulls *store.Bitmap, n int64, sum float64) (int64, float64) {
	if nulls == nil {
		for _, r := range sel {
			sum += float64(xs[r])
		}
		return n + int64(len(sel)), sum
	}
	for _, r := range sel {
		if !nulls.Get(int(r)) {
			n++
			sum += float64(xs[r])
		}
	}
	return n, sum
}

// foldExtreme is foldSum for MIN (isMin) or MAX: m is the running extreme
// of the n values folded so far. A NaN never replaces m, and a first NaN is
// never replaced, as under value.Compare.
func foldExtreme[T int64 | float64](xs []T, sel []int32, nulls *store.Bitmap, isMin bool, n int64, m T) (int64, T) {
	if nulls != nil {
		for _, r := range sel {
			if nulls.Get(int(r)) {
				continue
			}
			if x := xs[r]; n == 0 || (isMin && x < m) || (!isMin && x > m) {
				m = x
			}
			n++
		}
		return n, m
	}
	if len(sel) == 0 {
		return n, m
	}
	if n == 0 {
		m = xs[sel[0]]
	}
	if isMin {
		for _, r := range sel {
			if x := xs[r]; x < m {
				m = x
			}
		}
	} else {
		for _, r := range sel {
			if x := xs[r]; x > m {
				m = x
			}
		}
	}
	return n + int64(len(sel)), m
}

// updateRow folds non-NULL row r of a string, bool or boxed MIN/MAX
// argument: the shapes with no typed loop.
func (a *vaggAcc) updateRow(v *store.Vec, r int32) {
	first, isMin := a.count == 0, a.fn == plan.AggMin
	a.count++
	switch v.Kind {
	case value.String:
		if x := v.Strs[r]; first || (isMin && x < a.ms) || (!isMin && x > a.ms) {
			a.ms = x
		}
	case value.Bool:
		if x := v.Bools[r]; first || (isMin && !x && a.mb) || (!isMin && x && !a.mb) {
			a.mb = x
		}
	default:
		if x := v.Boxed[r]; first || (isMin && x.Compare(a.mv) < 0) || (!isMin && x.Compare(a.mv) > 0) {
			a.mv = x
		}
	}
}

// result is the aggregate's value: NULL for a SUM, AVG, MIN or MAX that
// folded no value.
func (a *vaggAcc) result() value.Value {
	switch a.fn {
	case plan.AggCount:
		return value.VInt(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return value.VNull
		}
		return value.VFloat(a.sum)
	case plan.AggAvg:
		if a.count == 0 {
			return value.VNull
		}
		return value.VFloat(a.sum / float64(a.count))
	case plan.AggMin, plan.AggMax:
		if a.count == 0 {
			return value.VNull
		}
		switch a.kind {
		case value.Int:
			return value.VInt(a.mi)
		case value.Float:
			return value.VFloat(a.mf)
		case value.String:
			return value.VString(a.ms)
		case value.Bool:
			return value.VBool(a.mb)
		}
		return a.mv
	}
	return value.VNull
}

// foldGroups folds one batch into one aggregate's per-group accumulators:
// row sel[k] goes to accs[gidx[k]]. Each group sees its rows in selection
// order, as a per-row update does, so float sums are bit-identical. The
// kind dispatch and the null-word test happen once per batch; string, bool
// and boxed MIN/MAX fall back to updateRow.
func foldGroups(accs []vaggAcc, cols []*store.Vec, sel, gidx []int32) {
	fn, arg := accs[0].fn, accs[0].arg
	if arg < 0 { // COUNT(*)
		for _, g := range gidx {
			accs[g].count++
		}
		return
	}
	v := cols[arg]
	nulls := v.Nulls.AnySel(sel)
	switch {
	case fn == plan.AggCount:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				accs[gidx[k]].count++
			}
		}
	case (fn == plan.AggSum || fn == plan.AggAvg) && v.Kind == value.Int:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				a := &accs[gidx[k]]
				a.count++
				a.sum += float64(v.Ints[r])
			}
		}
	case fn == plan.AggSum || fn == plan.AggAvg:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				a := &accs[gidx[k]]
				a.count++
				a.sum += v.Floats[r]
			}
		}
	case v.Kind == value.Int:
		isMin := fn == plan.AggMin
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				continue
			}
			a := &accs[gidx[k]]
			if x := v.Ints[r]; a.count == 0 || (isMin && x < a.mi) || (!isMin && x > a.mi) {
				a.mi = x
			}
			a.count++
		}
	case v.Kind == value.Float:
		isMin := fn == plan.AggMin
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				continue
			}
			a := &accs[gidx[k]]
			if x := v.Floats[r]; a.count == 0 || (isMin && x < a.mf) || (!isMin && x > a.mf) {
				a.mf = x
			}
			a.count++
		}
	default:
		for k, r := range sel {
			if !nulls || !v.Nulls.Get(int(r)) {
				accs[gidx[k]].updateRow(v, r)
			}
		}
	}
}
