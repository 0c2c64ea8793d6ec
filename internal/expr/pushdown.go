package expr

import (
	"bytes"
	"math"
	"sort"
	"strings"

	"recache/internal/value"
)

// This file holds the scan-pushdown machinery: ExtractPushdown splits a
// conjunctive scan predicate into *pushable* single-column conjuncts and a
// *residual*, and compiles the pushable part into per-column typed tests a
// raw-scan provider can evaluate on undecoded field bytes — decode the
// tested column, run the fused interval kernel, and skip the rest of the
// record on failure, before any other field is parsed or boxed.
//
// The recognized conjunct shape is exactly the one the vectorized kernels
// (CompileVecFilter) accept:
// <col> <cmp> <literal> over a single Int/Float/String row slot. Numeric
// conjuncts on one column fuse into the interval form of ranges.go, so a
// BETWEEN costs one range check per record. All three evaluators agree on
// null semantics — a null (or absent) operand fails the conjunct — so
// pushing a conjunct below parsing never changes results.

// strPred is one string comparison kernel of a ColTest. The literal is kept
// both as a string and as bytes so raw CSV/JSON fields compare without
// allocating.
type strPred struct {
	op Op
	s  string
	b  []byte
}

// ColTest is the fused pushdown test for one column: every pushed conjunct
// on the column folded into at most one integer interval, one float
// interval, inequality lists, and string comparisons. Kind is the column's
// static kind — the typed decode the provider performs before testing. A
// null, absent, or empty value fails the test (SQL filter semantics).
type ColTest struct {
	Slot int        // top-level row slot of the column
	Path value.Path // column path (for needed-set union and EXPLAIN)
	Kind value.Kind // Int, Float or String: what the provider decodes

	intR  *vecSpec // fused integer interval (int column, int literals)
	fltR  *vecSpec // fused float interval (float literals or float column)
	intNe []int64
	fltNe []float64
	strs  []strPred
	empty bool // statically unsatisfiable: nothing passes
}

// TestInt tests a decoded integer column value.
func (t *ColTest) TestInt(x int64) bool {
	if t.empty {
		return false
	}
	if t.intR != nil && (x < t.intR.lo || x > t.intR.hi) {
		return false
	}
	for _, ne := range t.intNe {
		if x == ne {
			return false
		}
	}
	if t.fltR != nil && !fltInRange(float64(x), t.fltR) {
		return false
	}
	for _, f := range t.fltNe {
		if float64(x) == f {
			return false
		}
	}
	return true
}

// TestFloat tests a decoded float column value. NaN semantics mirror the
// row evaluator's: NaN passes only non-strict range bounds and fails
// every inequality.
func (t *ColTest) TestFloat(x float64) bool {
	if t.empty {
		return false
	}
	if t.fltR != nil && !fltInRange(x, t.fltR) {
		return false
	}
	for _, f := range t.fltNe {
		if !(x == x && x != f) {
			return false
		}
	}
	return true
}

// TestStr tests a decoded string column value.
func (t *ColTest) TestStr(s string) bool {
	if t.empty {
		return false
	}
	for i := range t.strs {
		if !strCmpOK(s, t.strs[i].s, t.strs[i].op) {
			return false
		}
	}
	return true
}

// TestStrBytes is TestStr over raw field bytes, allocation-free.
func (t *ColTest) TestStrBytes(b []byte) bool {
	if t.empty {
		return false
	}
	for i := range t.strs {
		c := bytes.Compare(b, t.strs[i].b)
		var ok bool
		switch t.strs[i].op {
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
		if !ok {
			return false
		}
	}
	return true
}

// Pushdown is the compiled pushable part of one scan predicate: per-column
// fused tests plus the source conjuncts they came from.
type Pushdown struct {
	tests []ColTest
	conj  []Expr
}

// ExtractPushdown splits a scan predicate into its pushable single-column
// conjuncts — compiled into per-column tests — and the residual conjunct
// the pipeline must still apply above the scan. The invariant is
// pushed ∧ residual ≡ pred. pd is nil when no conjunct is pushable (then
// residual is the whole predicate); residual is nil when everything pushed.
func ExtractPushdown(pred Expr, schema *value.Type) (pd *Pushdown, residual Expr) {
	if pred == nil {
		return nil, nil
	}
	if t, err := pred.Type(schema); err != nil || t.Kind != value.Bool {
		return nil, pred
	}
	var (
		push  []Expr
		specs []cmpSpec
		cols  []*Col
		rest  []Expr
	)
	for _, c := range Conjuncts(pred) {
		sp, col, ok := cmpSpecOf(c, schema)
		if !ok {
			rest = append(rest, c)
			continue
		}
		push = append(push, c)
		specs = append(specs, sp)
		cols = append(cols, col)
	}
	if len(push) == 0 {
		return nil, pred
	}
	return newPushdown(schema, push, specs, cols), And(rest...)
}

// newPushdown groups the recognized conjuncts per column slot and fuses
// each group into one ColTest. Tests are ordered cheapest decode first
// (Int, then Float, then String), so a failing record bails on the
// cheapest column it can.
func newPushdown(schema *value.Type, conj []Expr, specs []cmpSpec, cols []*Col) *Pushdown {
	bySlot := map[int]*ColTest{}
	var tests []*ColTest
	for i, sp := range specs {
		t := bySlot[sp.idx]
		if t == nil {
			t = &ColTest{Slot: sp.idx, Path: cols[i].Path, Kind: sp.colKind}
			bySlot[sp.idx] = t
			tests = append(tests, t)
		}
		switch sp.kind {
		case value.Int:
			if sp.op == OpNe {
				t.intNe = append(t.intNe, sp.i)
				continue
			}
			if t.intR == nil {
				t.intR = &vecSpec{kind: vsIntRange, lo: math.MinInt64, hi: math.MaxInt64}
			}
			tightenInt(t.intR, sp.op, sp.i)
		case value.Float:
			if sp.op == OpNe {
				if math.IsNaN(sp.f) {
					// <> NaN: the row evaluator's compare yields equal for a NaN
					// literal, so every record is rejected.
					t.empty = true
					continue
				}
				t.fltNe = append(t.fltNe, sp.f)
				continue
			}
			if t.fltR == nil {
				t.fltR = &vecSpec{kind: vsFltRange, flo: math.Inf(-1), fhi: math.Inf(1), nanOK: true}
			}
			tightenFloat(t.fltR, sp.op, sp.f)
		default: // String
			t.strs = append(t.strs, strPred{op: sp.op, s: sp.s, b: []byte(sp.s)})
		}
	}
	out := make([]ColTest, 0, len(tests))
	for _, t := range tests {
		if t.intR != nil && t.intR.empty || t.fltR != nil && t.fltR.empty {
			t.empty = true
		}
		out = append(out, *t)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return decodeCost(out[i].Kind) < decodeCost(out[j].Kind)
	})
	return &Pushdown{tests: out, conj: conj}
}

// decodeCost orders test columns by how cheap the raw decode is.
func decodeCost(k value.Kind) int {
	switch k {
	case value.Int:
		return 0
	case value.Float:
		return 1
	default:
		return 2
	}
}

// Tests returns the per-column tests in evaluation order.
func (p *Pushdown) Tests() []ColTest {
	if p == nil {
		return nil
	}
	return p.tests
}

// NumConjuncts reports how many source conjuncts were pushed.
func (p *Pushdown) NumConjuncts() int {
	if p == nil {
		return 0
	}
	return len(p.conj)
}

// EqNeedle returns the longest string-equality literal among the pushed
// conjuncts, or nil if none was pushed. A record whose raw bytes do not
// contain the literal at all cannot have any field equal to it, so scan
// providers use the needle for memchr-style candidate filtering: one
// forward substring search over the file rejects whole records before any
// field is located or decoded. The longest literal is chosen because it is
// the most selective and the cheapest to search for.
func (p *Pushdown) EqNeedle() []byte {
	if p == nil {
		return nil
	}
	var best []byte
	for i := range p.tests {
		for _, sp := range p.tests[i].strs {
			if sp.op == OpEq && len(sp.b) > len(best) {
				best = sp.b
			}
		}
	}
	return best
}

// NeedleCursor is a monotone substring-search cursor over a byte buffer:
// Next reports the offset of the first needle occurrence at or after from,
// re-searching only when the cursor has fallen behind. Scanning records in
// file order therefore costs one amortized pass of bytes.Index over the
// whole buffer, however many records consult the cursor.
type NeedleCursor struct {
	data   []byte
	needle []byte
	at     int // offset of the match found by the last search, or len(data)
}

// NewNeedleCursor returns a cursor over data, or nil for an empty needle
// (an empty needle matches everywhere, so no filtering is possible).
func NewNeedleCursor(data, needle []byte) *NeedleCursor {
	if len(needle) == 0 {
		return nil
	}
	return &NeedleCursor{data: data, needle: needle, at: -1}
}

// Next returns the offset of the first occurrence at or after from, or
// len(data) when there is none. from must not decrease across calls.
func (c *NeedleCursor) Next(from int) int {
	if c.at >= from {
		return c.at
	}
	if i := bytes.Index(c.data[from:], c.needle); i >= 0 {
		c.at = from + i
	} else {
		c.at = len(c.data)
	}
	return c.at
}

// Cols returns the tested column paths in evaluation order.
func (p *Pushdown) Cols() []value.Path {
	if p == nil {
		return nil
	}
	out := make([]value.Path, len(p.tests))
	for i := range p.tests {
		out[i] = p.tests[i].Path
	}
	return out
}

// String renders the pushed conjuncts for EXPLAIN: "[a>=10, b<5]".
func (p *Pushdown) String() string {
	if p == nil {
		return "[]"
	}
	parts := make([]string, len(p.conj))
	for i, c := range p.conj {
		parts[i] = c.Canonical()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// TestRow evaluates the pushdown against a decoded (boxed) row — the
// fallback for providers that cannot push below parsing. It agrees with
// the byte-level tests and with CompilePredicate: null fails.
func (p *Pushdown) TestRow(row []value.Value) bool {
	if p == nil {
		return true
	}
	for i := range p.tests {
		t := &p.tests[i]
		if t.Slot >= len(row) {
			return false
		}
		v := &row[t.Slot]
		if v.Kind == value.Null {
			return false
		}
		switch t.Kind {
		case value.Int:
			if v.Kind != value.Int || !t.TestInt(v.I) {
				return false
			}
		case value.Float:
			var x float64
			switch v.Kind {
			case value.Int:
				x = float64(v.I)
			case value.Float:
				x = v.F
			default:
				return false
			}
			if !t.TestFloat(x) {
				return false
			}
		default:
			if v.Kind != value.String || !t.TestStr(v.S) {
				return false
			}
		}
	}
	return true
}
