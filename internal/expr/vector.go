package expr

import (
	"math"
	"slices"

	"recache/internal/store"
	"recache/internal/value"
)

// This file holds the batch filter: a VecFilter evaluates a predicate over
// typed column vectors by tightening a selection vector, instead of testing
// one boxed row at a time. It is compiled as the scan pushdown is
// (ExtractPushdown): the <col> <cmp> <literal> conjuncts over single
// Int/Float/String slots fold into one ColTest per column, and every other
// conjunct — OR, NOT, arithmetic, one column compared with another, a path
// into a sub-record — stays in the rest, a compiled row predicate that runs
// last on the boxed rows the tests kept, so its results are the row
// predicate's by construction. Both treat a null operand as false (SQL
// three-valued logic at a filter). The tests are the ones a raw scan runs
// below parsing on a miss: one compiled conjunct serves both paths.
//
// Numeric conjuncts are fused per column into the interval form of
// ranges.go — qty >= 20 AND qty <= 40 becomes one [20,40] kernel pass, the
// same representation the R-tree subsumption index matches on — so a
// BETWEEN costs one loop over the selection vector, not two.

// VecFilter is a compiled predicate over column batches: the ColTests of
// its pushable conjuncts, then the row predicate of the rest.
type VecFilter struct {
	tests []ColTest
	rest  Predicate // nil when every conjunct is a test
	// restSlots are the batch columns rest reads, ascending. rest is
	// compiled against the record of those fields alone, so its rows hold
	// column restSlots[j] at position j and nothing else.
	restSlots []int
}

// CompileVecFilter compiles e against the input schema: ExtractPushdown's
// tests, and CompilePredicate of the residual it leaves over the fields the
// residual reads. A nil predicate compiles to the pass-everything filter;
// an error is e's own (an unknown column, a non-boolean predicate).
func CompileVecFilter(e Expr, schema *value.Type) (*VecFilter, error) {
	pd, residual := ExtractPushdown(e, schema)
	f := &VecFilter{tests: pd.Tests()}
	if residual == nil {
		return f, nil
	}
	if _, err := residual.Type(schema); err != nil {
		return nil, err
	}
	for _, p := range Columns(residual) {
		if _, chain, err := resolveCol(schema, p); err == nil && !slices.Contains(f.restSlots, chain[0]) {
			f.restSlots = append(f.restSlots, chain[0])
		}
	}
	slices.Sort(f.restSlots)
	fields := make([]value.Field, len(f.restSlots))
	for j, slot := range f.restSlots {
		fields[j] = schema.Fields[slot]
	}
	rest, err := CompilePredicate(residual, value.TRecord(fields...))
	if err != nil {
		return nil, err
	}
	f.rest = rest
	return f, nil
}

// ColSlot reports the single row slot a plain column reference resolves to
// against the input schema; ok is false for any other expression shape.
// The vectorized pipeline uses it to map aggregate arguments, group-by
// keys, and projections onto batch columns.
func ColSlot(e Expr, schema *value.Type) (int, bool) {
	c, ok := e.(*Col)
	if !ok {
		return 0, false
	}
	_, chain, err := resolveCol(schema, c.Path)
	if err != nil || len(chain) != 1 {
		return 0, false
	}
	return chain[0], true
}

// Compatible verifies that batch columns of the given kinds hold what the
// tests were compiled for — every tested slot present, of the test's kind
// — so a kernel never reads a missing or wrong typed slice. The kinds are
// fixed across a source's batches: one check covers the stream.
func (f *VecFilter) Compatible(kinds []value.Kind) bool {
	for i := range f.tests {
		if t := &f.tests[i]; t.Slot >= len(kinds) || kinds[t.Slot] != t.Kind {
			return false
		}
	}
	return true
}

// Apply runs the filter over the selection vector in place, returning the
// surviving prefix of sel: each test over its column, then the rest over
// the rows the tests kept, boxed (store.FillSlots) from the columns the
// rest reads and no others. Rows whose tested column is null never
// survive, matching the row evaluator.
func (f *VecFilter) Apply(cols []*store.Vec, sel []int32) []int32 {
	for i := range f.tests {
		if len(sel) == 0 {
			return sel
		}
		sel = f.tests[i].selectVec(cols[f.tests[i].Slot], sel)
	}
	if f.rest == nil || len(sel) == 0 {
		return sel
	}
	nc := len(f.restSlots)
	rows := make([]value.Value, len(sel)*nc)
	store.FillSlots(cols, f.restSlots, sel, rows)
	out := sel[:0]
	for k, r := range sel {
		if f.rest(rows[k*nc : (k+1)*nc : (k+1)*nc]) {
			out = append(out, r)
		}
	}
	return out
}

// selectVec keeps the rows of sel whose value in v passes t, running each
// of t's kernels in turn. The kernels read a NULL row's placeholder value
// like any other; when the null words of their survivors hold a NULL, one
// more pass drops the NULL rows, over the rows the kernels kept rather
// than the whole selection.
func (t *ColTest) selectVec(v *store.Vec, sel []int32) []int32 {
	if t.empty {
		return sel[:0]
	}
	switch t.Kind {
	case value.String:
		// The one kernel whose work is per row anyway.
		strs, n := v.Strs, 0
		for _, r := range sel {
			sel[n] = r
			n += b2i(t.TestStr(strs[r]))
		}
		sel = sel[:n]
	case value.Int:
		if t.lo != math.MinInt64 || t.hi != math.MaxInt64 {
			sel = keepIntRange(v.Ints, t.lo, uint64(t.hi-t.lo), sel)
		}
		for _, x := range t.intNe {
			sel = keepIntNe(v.Ints, x, sel)
		}
		if t.fltRanged() {
			sel = keepIntFltRange(v.Ints, t.flo, t.fhi, sel)
		}
		for _, f := range t.fltNe {
			sel = keepIntFltNe(v.Ints, f, sel)
		}
	default: // Float
		if t.fltRanged() && t.nanOK {
			sel = keepFltRangeNaN(v.Floats, t.flo, t.fhi, sel)
		} else if t.fltRanged() {
			sel = keepFltRange(v.Floats, t.flo, t.fhi, sel)
		}
		for _, f := range t.fltNe {
			sel = keepFltNe(v.Floats, f, sel)
		}
	}
	if v.Nulls.AnySel(sel) {
		sel = dropNulls(&v.Nulls, sel)
	}
	return sel
}

// The kernels. Each loop writes every row to output slot n and advances n
// by the test's 0/1 result, so it has no data-dependent branch to
// mispredict at the 40-80 % selectivities subsumed hits run at; the output
// overwrites sel in place, as slot n never passes the row being read. Each
// is its own function, kept out of line: where a loop lands decides
// whether the assembler pads a NOP into its body to keep a jump off a
// 32-byte boundary (~15 % on an int range), and a function of its own
// keeps that from moving with every edit around it.

// keepIntRange keeps lo <= x <= lo+span with one unsigned compare: x-lo
// wraps exactly for all of int64 (a crossed range is empty, never here).
//
//go:noinline
func keepIntRange(ints []int64, lo int64, span uint64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += b2i(uint64(ints[r]-lo) <= span)
	}
	return sel[:n]
}

//go:noinline
func keepIntNe(ints []int64, x int64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += b2i(ints[r] != x)
	}
	return sel[:n]
}

// keepIntFltRange compares an int column as floats.
//
//go:noinline
func keepIntFltRange(ints []int64, lo, hi float64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		x := float64(ints[r])
		n += b2i(x >= lo) & b2i(x <= hi)
	}
	return sel[:n]
}

//go:noinline
func keepIntFltNe(ints []int64, f float64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += 1 - b2i(float64(ints[r]) == f)
	}
	return sel[:n]
}

// keepFltRangeNaN is the range of a float interval that admits NaN: NaN is
// neither below lo nor above hi, so it passes.
//
//go:noinline
func keepFltRangeNaN(fs []float64, lo, hi float64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		x := fs[r]
		n += 1 - (b2i(x < lo) | b2i(x > hi))
	}
	return sel[:n]
}

//go:noinline
func keepFltRange(fs []float64, lo, hi float64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		x := fs[r]
		n += b2i(x >= lo) & b2i(x <= hi)
	}
	return sel[:n]
}

// keepFltNe: x == x excludes NaN, which compares equal to f in the row
// evaluator.
//
//go:noinline
func keepFltNe(fs []float64, f float64, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		x := fs[r]
		n += b2i(x != f) & b2i(x == x)
	}
	return sel[:n]
}

// dropNulls keeps the rows that are not null.
//
//go:noinline
func dropNulls(nulls *store.Bitmap, sel []int32) []int32 {
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += 1 - b2i(nulls.Get(int(r)))
	}
	return sel[:n]
}

// fltRanged reports whether a conjunct narrowed the float interval: the
// whole line with NaN admitted passes every non-null value, and needs no
// kernel.
func (t *ColTest) fltRanged() bool {
	return t.flo != math.Inf(-1) || t.fhi != math.Inf(1) || !t.nanOK
}

// b2i is 1 for true and 0 for false; it compiles to a flag read, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
