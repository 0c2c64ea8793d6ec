package expr

import (
	"math"

	"recache/internal/store"
	"recache/internal/value"
)

// This file holds the vectorized predicate kernels: a VecFilter evaluates a
// scan predicate over typed column vectors by tightening a selection
// vector, instead of testing one boxed row at a time. The predicate shape
// the fused row path accepts (AND-chains of <col> <cmp> <literal> over
// single-slot Int/Float/String columns) compiles to typed kernels with that
// path's semantics; every other predicate — OR, NOT, arithmetic, one column
// compared with another, a path into a sub-record — compiles to one generic
// spec that boxes the selected rows and runs the compiled row predicate
// itself, so its results are the row predicate's by construction. Both
// treat a null operand as false (SQL three-valued logic at a filter).
//
// Numeric conjuncts are fused per column into the interval form of
// ranges.go — qty >= 20 AND qty <= 40 becomes one [20,40] kernel pass, the
// same representation the R-tree subsumption index matches on — so a
// BETWEEN costs one loop over the selection vector, not two.

// vecSpecKind enumerates the kernel flavors.
type vecSpecKind uint8

const (
	vsIntRange vecSpecKind = iota // lo <= Ints[r] <= hi (inclusive)
	vsFltRange                    // numeric column compared as float64
	vsIntNe                       // Ints[r] != i
	vsFltNe                       // float64(col[r]) != f
	vsStrCmp                      // Strs[r] op s
	vsGeneric                     // pred over the boxed row
)

// vecSpec is one compiled kernel.
type vecSpec struct {
	kind     vecSpecKind
	idx      int        // column slot in the batch
	src      value.Kind // vector the kernel reads (Int, Float, String)
	lo, hi   int64      // int range bounds
	flo, fhi float64    // float range bounds, both closed
	// nanOK mirrors the fused row path's NaN behaviour per conjunct: a NaN
	// operand yields compare-equal there, so it passes =, <= and >= but
	// fails < and >. A fused interval admits NaN iff no folded conjunct was
	// strict.
	nanOK bool
	i     int64     // int inequality constant
	f     float64   // float inequality constant
	s     string    // string comparison constant
	op    Op        // string comparison operator
	empty bool      // statically unsatisfiable conjunct
	pred  Predicate // the generic spec's row predicate
}

// VecFilter is a compiled predicate over column batches.
type VecFilter struct {
	specs []vecSpec
}

// CompileVecFilter compiles e against the input schema into selection
// kernels: typed ones for the fused shape, the generic spec otherwise. A
// nil predicate compiles to the pass-everything filter; an error is e's
// own (an unknown column, a non-boolean predicate).
func CompileVecFilter(e Expr, schema *value.Type) (*VecFilter, error) {
	if e == nil {
		return &VecFilter{}, nil
	}
	cmps, ok := extractCmpSpecs(e, schema)
	if !ok {
		pred, err := CompilePredicate(e, schema)
		if err != nil {
			return nil, err
		}
		return &VecFilter{specs: []vecSpec{{kind: vsGeneric, pred: pred}}}, nil
	}
	f := &VecFilter{}
	// Numeric range accumulators per (column, representation); they merge
	// into one interval kernel apiece and are emitted in first-seen order.
	intRange := map[int]*vecSpec{}
	fltRange := map[int]*vecSpec{}
	var rangeOrder []*vecSpec
	for _, c := range cmps {
		switch c.kind {
		case value.Int:
			if c.op == OpNe {
				f.specs = append(f.specs, vecSpec{kind: vsIntNe, idx: c.idx, src: value.Int, i: c.i})
				continue
			}
			sp := intRange[c.idx]
			if sp == nil {
				sp = &vecSpec{kind: vsIntRange, idx: c.idx, src: value.Int,
					lo: math.MinInt64, hi: math.MaxInt64}
				intRange[c.idx] = sp
				rangeOrder = append(rangeOrder, sp)
			}
			tightenInt(sp, c.op, c.i)
		case value.Float:
			if c.op == OpNe {
				// <> NaN: the row path's compare yields equal for a NaN
				// operand, so every row is rejected.
				f.specs = append(f.specs, vecSpec{kind: vsFltNe, idx: c.idx, src: c.colKind,
					f: c.f, empty: math.IsNaN(c.f)})
				continue
			}
			sp := fltRange[c.idx]
			if sp == nil {
				sp = &vecSpec{kind: vsFltRange, idx: c.idx, src: c.colKind,
					flo: math.Inf(-1), fhi: math.Inf(1), nanOK: true}
				fltRange[c.idx] = sp
				rangeOrder = append(rangeOrder, sp)
			}
			tightenFloat(sp, c.op, c.f)
		default: // value.String
			f.specs = append(f.specs, vecSpec{kind: vsStrCmp, idx: c.idx, src: value.String,
				s: c.s, op: c.op})
		}
	}
	// Ranges first: they are the cheapest kernels and usually the most
	// selective, shrinking the selection vector for the rest.
	if len(rangeOrder) > 0 {
		specs := make([]vecSpec, 0, len(rangeOrder)+len(f.specs))
		for _, sp := range rangeOrder {
			specs = append(specs, *sp)
		}
		f.specs = append(specs, f.specs...)
	}
	return f, nil
}

// tightenInt intersects an integer range spec with one comparison. Open
// bounds shift to the nearest integer; shifts that would overflow make the
// conjunct unsatisfiable.
func tightenInt(sp *vecSpec, op Op, x int64) {
	switch op {
	case OpEq:
		if x > sp.lo {
			sp.lo = x
		}
		if x < sp.hi {
			sp.hi = x
		}
	case OpLt:
		if x == math.MinInt64 {
			sp.empty = true
			return
		}
		if x-1 < sp.hi {
			sp.hi = x - 1
		}
	case OpLe:
		if x < sp.hi {
			sp.hi = x
		}
	case OpGt:
		if x == math.MaxInt64 {
			sp.empty = true
			return
		}
		if x+1 > sp.lo {
			sp.lo = x + 1
		}
	case OpGe:
		if x > sp.lo {
			sp.lo = x
		}
	}
	if sp.lo > sp.hi {
		sp.empty = true
	}
}

// tightenFloat intersects a float range spec with one comparison. The
// bounds stay closed: a strict bound moves to the neighbouring float (for
// every non-NaN x, x > c is x >= Nextafter(c, +Inf)), and a strict bound
// beyond an infinity admits nothing. NaN follows the fused row path
// exactly: a NaN literal compares equal to everything there (so strict
// comparisons reject every row and non-strict ones are vacuous), and a NaN
// column value passes only non-strict conjuncts (tracked via nanOK).
func tightenFloat(sp *vecSpec, op Op, x float64) {
	if math.IsNaN(x) {
		if op == OpLt || op == OpGt {
			sp.empty = true
		}
		return
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	switch op {
	case OpEq:
		lo, hi = x, x
	case OpLt:
		if math.IsInf(x, -1) {
			sp.empty = true
			return
		}
		hi = math.Nextafter(x, math.Inf(-1))
		sp.nanOK = false
	case OpLe:
		hi = x
	case OpGt:
		if math.IsInf(x, 1) {
			sp.empty = true
			return
		}
		lo = math.Nextafter(x, math.Inf(1))
		sp.nanOK = false
	case OpGe:
		lo = x
	}
	if lo > sp.flo {
		sp.flo = lo
	}
	if hi < sp.fhi {
		sp.fhi = hi
	}
	// A crossed interval still admits NaN while every conjunct is
	// non-strict (b >= 2 AND b <= 1 keeps NaN on the row path).
	if sp.flo > sp.fhi && !sp.nanOK {
		sp.empty = true
	}
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
// typed kernels were compiled for, so a kernel never reads the wrong typed
// slice. The kinds are fixed across a source's batches: one check covers
// the stream.
func (f *VecFilter) Compatible(kinds []value.Kind) bool {
	for i := range f.specs {
		sp := &f.specs[i]
		if sp.kind != vsGeneric && sp.idx < len(kinds) && kinds[sp.idx] != sp.src {
			return false
		}
	}
	return true
}

// Apply runs every kernel over the selection vector in place, returning the
// surviving prefix of sel. Rows whose tested column is null never survive,
// matching the fused row predicate; each kernel tests the null words its
// selection covers once and reads the bitmap per row only when they hold a
// null. A numeric kernel over a NULL-free selection runs branch-free
// (selectDense).
func (f *VecFilter) Apply(cols []*store.Vec, sel []int32) []int32 {
	for i := range f.specs {
		sp := &f.specs[i]
		if len(sel) == 0 {
			return sel
		}
		if sp.kind == vsGeneric {
			sel = sp.applyGeneric(cols, sel)
			continue
		}
		if sp.empty || sp.idx >= len(cols) {
			return sel[:0]
		}
		v := cols[sp.idx]
		nulls := v.Nulls.AnySel(sel)
		if !nulls && sp.kind != vsStrCmp {
			sel = sp.selectDense(v, sel)
			continue
		}
		// A numeric kernel gets here only when the null words hold a NULL.
		out := sel[:0]
		switch sp.kind {
		case vsIntRange:
			ints, lo, hi := v.Ints, sp.lo, sp.hi
			for _, r := range sel {
				if x := ints[r]; x >= lo && x <= hi && !v.Nulls.Get(int(r)) {
					out = append(out, r)
				}
			}
		case vsFltRange:
			if v.Kind == value.Int {
				for _, r := range sel {
					if fltInRange(float64(v.Ints[r]), sp) && !v.Nulls.Get(int(r)) {
						out = append(out, r)
					}
				}
			} else {
				for _, r := range sel {
					if fltInRange(v.Floats[r], sp) && !v.Nulls.Get(int(r)) {
						out = append(out, r)
					}
				}
			}
		case vsIntNe:
			ints, x := v.Ints, sp.i
			for _, r := range sel {
				if ints[r] != x && !v.Nulls.Get(int(r)) {
					out = append(out, r)
				}
			}
		case vsFltNe:
			if v.Kind == value.Int {
				for _, r := range sel {
					if float64(v.Ints[r]) != sp.f && !v.Nulls.Get(int(r)) {
						out = append(out, r)
					}
				}
			} else {
				// x == x excludes NaN values: the row path's compare puts
				// NaN equal to everything, so <> rejects it.
				for _, r := range sel {
					if x := v.Floats[r]; x == x && x != sp.f && !v.Nulls.Get(int(r)) {
						out = append(out, r)
					}
				}
			}
		case vsStrCmp:
			strs, s, op := v.Strs, sp.s, sp.op
			for _, r := range sel {
				if strCmpOK(strs[r], s, op) && (!nulls || !v.Nulls.Get(int(r))) {
					out = append(out, r)
				}
			}
		}
		sel = out
	}
	return sel
}

// applyGeneric is the generic spec: it boxes the selected rows of cols
// (store.FillRows) and keeps those the row predicate passes, in order.
func (sp *vecSpec) applyGeneric(cols []*store.Vec, sel []int32) []int32 {
	nc := len(cols)
	rows := make([]value.Value, len(sel)*nc)
	store.FillRows(cols, sel, rows, nc)
	out := sel[:0]
	for k, r := range sel {
		if sp.pred(rows[k*nc : (k+1)*nc : (k+1)*nc]) {
			out = append(out, r)
		}
	}
	return out
}

// selectDense runs one numeric kernel over a selection whose null words hold
// no NULL. Each loop writes every row to output slot n and advances n by the
// test's 0/1 result, so it has no data-dependent branch to mispredict at
// the 40-80 % selectivities subsumed hits run at. The output overwrites sel
// in place: slot n never passes the row being read.
func (sp *vecSpec) selectDense(v *store.Vec, sel []int32) []int32 {
	n := 0
	switch {
	case sp.kind == vsIntRange:
		// One unsigned compare: x-lo wraps exactly for all of int64, and
		// lo <= hi (a crossed range is sp.empty).
		ints, lo, span := v.Ints, sp.lo, uint64(sp.hi-sp.lo)
		for _, r := range sel {
			sel[n] = r
			n += b2i(uint64(ints[r]-lo) <= span)
		}
	case sp.kind == vsIntNe:
		ints, x := v.Ints, sp.i
		for _, r := range sel {
			sel[n] = r
			n += b2i(ints[r] != x)
		}
	case sp.kind == vsFltRange && v.Kind == value.Int:
		ints, lo, hi := v.Ints, sp.flo, sp.fhi
		for _, r := range sel {
			x := float64(ints[r])
			sel[n] = r
			n += b2i(x >= lo) & b2i(x <= hi)
		}
	case sp.kind == vsFltRange && sp.nanOK:
		// Both compares are false for NaN, so NaN passes.
		fs, lo, hi := v.Floats, sp.flo, sp.fhi
		for _, r := range sel {
			x := fs[r]
			sel[n] = r
			n += b2i(!(x < lo)) & b2i(!(x > hi))
		}
	case sp.kind == vsFltRange:
		fs, lo, hi := v.Floats, sp.flo, sp.fhi
		for _, r := range sel {
			x := fs[r]
			sel[n] = r
			n += b2i(x >= lo) & b2i(x <= hi)
		}
	case v.Kind == value.Int: // vsFltNe
		ints, f := v.Ints, sp.f
		for _, r := range sel {
			sel[n] = r
			n += b2i(float64(ints[r]) != f)
		}
	default: // vsFltNe over floats: NaN is neither below nor above f, so it fails
		fs, f := v.Floats, sp.f
		for _, r := range sel {
			x := fs[r]
			sel[n] = r
			n += b2i(x < f) | b2i(x > f)
		}
	}
	return sel[:n]
}

// b2i is 1 for true and 0 for false; it compiles to a flag read, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fltInRange tests one value against a float range spec's bounds.
func fltInRange(x float64, sp *vecSpec) bool {
	if x != x { // NaN: survives iff every folded conjunct was non-strict
		return sp.nanOK
	}
	return x >= sp.flo && x <= sp.fhi
}

// strCmpOK applies a comparison operator to two strings.
func strCmpOK(a, b string, op Op) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}
