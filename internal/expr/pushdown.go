package expr

import (
	"bytes"
	"math"
	"sort"
	"strings"

	"recache/internal/value"
)

// This file holds the compiled conjunct: ExtractPushdown splits a
// conjunctive predicate into its *pushable* single-column conjuncts and a
// *residual*, and folds the pushable part into one ColTest per column. The
// same tests run in two places: a raw-scan provider evaluates them on
// undecoded field bytes — decode the tested column, test it, and skip the
// rest of the record on failure, before any other field is parsed or boxed
// — and the batch filter (vector.go) runs their kernels over cached column
// vectors.
//
// The recognized conjunct shape is <col> <cmp> <literal> over a single
// Int/Float/String row slot. Numeric conjuncts on one column fuse into the
// interval form of ranges.go, so a BETWEEN costs one range check per
// record. The tests follow the row evaluator's null semantics — a null (or
// absent) operand fails the conjunct — so pushing a conjunct below parsing
// never changes results.

// strPred is one string comparison kernel of a ColTest. The literal is kept
// both as a string and as bytes so raw CSV/JSON fields compare without
// allocating.
type strPred struct {
	op Op
	s  string
	b  []byte
}

// ColTest is the compiled test for one column: every pushed conjunct on
// the column folded into at most one integer interval, one float interval,
// inequality lists, and string comparisons. Kind is the column's static
// kind — the typed decode the provider performs before testing, and the
// vector a batch holds. A null, absent, or empty value fails the test (SQL
// filter semantics).
type ColTest struct {
	Slot int        // top-level row slot of the column
	Path value.Path // column path (for needed-set union and EXPLAIN)
	Kind value.Kind // Int, Float or String: what the provider decodes

	// lo..hi is the fused integer interval (an int column against int
	// literals) and flo..fhi the fused float one (float literals, or a
	// float column), both closed; an interval no conjunct narrowed is the
	// whole line. nanOK mirrors the row evaluator's NaN behaviour per
	// conjunct: a NaN operand yields compare-equal there, so it passes =,
	// <= and >= but fails < and >. The float interval admits NaN iff no
	// folded conjunct was strict.
	lo, hi   int64
	flo, fhi float64
	nanOK    bool
	intNe    []int64
	fltNe    []float64
	strs     []strPred
	empty    bool // statically unsatisfiable: nothing passes
}

// TestInt tests a decoded integer column value.
func (t *ColTest) TestInt(x int64) bool {
	if t.empty || x < t.lo || x > t.hi {
		return false
	}
	for _, ne := range t.intNe {
		if x == ne {
			return false
		}
	}
	f := float64(x)
	if f < t.flo || f > t.fhi {
		return false
	}
	for _, ne := range t.fltNe {
		if f == ne {
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
	if x != x {
		return t.nanOK && len(t.fltNe) == 0
	}
	if x < t.flo || x > t.fhi {
		return false
	}
	for _, ne := range t.fltNe {
		if x == ne {
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

// TestStrBytes is TestStr over raw field bytes, allocation-free.
func (t *ColTest) TestStrBytes(b []byte) bool {
	if t.empty {
		return false
	}
	for i := range t.strs {
		if cmpResult(t.strs[i].op, bytes.Compare(b, t.strs[i].b)) != triTrue {
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
	return newPushdown(push, specs, cols), And(rest...)
}

// newPushdown groups the recognized conjuncts per column slot and fuses
// each group into one ColTest. Tests are ordered cheapest decode first
// (Int, then Float, then String), so a failing record bails on the
// cheapest column it can.
func newPushdown(conj []Expr, specs []cmpSpec, cols []*Col) *Pushdown {
	bySlot := map[int]*ColTest{}
	var tests []*ColTest
	for i, sp := range specs {
		t := bySlot[sp.idx]
		if t == nil {
			t = &ColTest{Slot: sp.idx, Path: cols[i].Path, Kind: sp.colKind,
				lo: math.MinInt64, hi: math.MaxInt64, flo: math.Inf(-1), fhi: math.Inf(1), nanOK: true}
			bySlot[sp.idx] = t
			tests = append(tests, t)
		}
		switch sp.kind {
		case value.Int:
			if sp.op == OpNe {
				t.intNe = append(t.intNe, sp.i)
				continue
			}
			t.tightenInt(sp.op, sp.i)
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
			t.tightenFloat(sp.op, sp.f)
		default: // String
			t.strs = append(t.strs, strPred{op: sp.op, s: sp.s, b: []byte(sp.s)})
		}
	}
	out := make([]ColTest, 0, len(tests))
	for _, t := range tests {
		out = append(out, *t)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return decodeCost(out[i].Kind) < decodeCost(out[j].Kind)
	})
	return &Pushdown{tests: out, conj: conj}
}

// tightenInt intersects the integer interval with one comparison. Open
// bounds shift to the nearest integer; shifts that would overflow make the
// test unsatisfiable.
func (t *ColTest) tightenInt(op Op, x int64) {
	switch op {
	case OpEq:
		t.lo, t.hi = max(t.lo, x), min(t.hi, x)
	case OpLt:
		if x == math.MinInt64 {
			t.empty = true
			return
		}
		t.hi = min(t.hi, x-1)
	case OpLe:
		t.hi = min(t.hi, x)
	case OpGt:
		if x == math.MaxInt64 {
			t.empty = true
			return
		}
		t.lo = max(t.lo, x+1)
	case OpGe:
		t.lo = max(t.lo, x)
	}
	if t.lo > t.hi {
		t.empty = true
	}
}

// tightenFloat intersects the float interval with one comparison. The
// bounds stay closed: a strict bound moves to the neighbouring float (for
// every non-NaN x, x > c is x >= Nextafter(c, +Inf)), and a strict bound
// beyond an infinity admits nothing. NaN follows the row evaluator
// (compareFloat) exactly: a NaN literal compares equal to everything there
// (so strict comparisons reject every row and non-strict ones are vacuous),
// and a NaN column value passes only non-strict conjuncts (nanOK).
func (t *ColTest) tightenFloat(op Op, x float64) {
	if math.IsNaN(x) {
		if op == OpLt || op == OpGt {
			t.empty = true
		}
		return
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	switch op {
	case OpEq:
		lo, hi = x, x
	case OpLt:
		if math.IsInf(x, -1) {
			t.empty = true
			return
		}
		hi = math.Nextafter(x, math.Inf(-1))
		t.nanOK = false
	case OpLe:
		hi = x
	case OpGt:
		if math.IsInf(x, 1) {
			t.empty = true
			return
		}
		lo = math.Nextafter(x, math.Inf(1))
		t.nanOK = false
	case OpGe:
		lo = x
	}
	t.flo, t.fhi = max(t.flo, lo), min(t.fhi, hi)
	// A crossed interval still admits NaN while every conjunct is
	// non-strict (b >= 2 AND b <= 1 keeps NaN in the row evaluator).
	if t.flo > t.fhi && !t.nanOK {
		t.empty = true
	}
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

// Expr returns the pushed conjuncts as one predicate: what the tests
// decide, for the row evaluator (CompilePredicate).
func (p *Pushdown) Expr() Expr {
	if p == nil {
		return nil
	}
	return And(p.conj...)
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
