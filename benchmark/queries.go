package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// query is one SQL string with the class it is reported under.
type query struct {
	SQL   string
	Class int
	// Table is the one table a flat query reads ("" otherwise).
	Table string
}

func sqlsOf(qs []query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.SQL
	}
	return out
}

// attr is a numeric column with the uniform value domain datagen draws it
// from, so a range of a given width has the same selectivity on every seed.
type attr struct {
	name     string
	min, max float64
	integer  bool
}

// columns are the attributes ranges are drawn on. Several domains grow
// with the scale factor, as datagen's key spaces do.
type columns struct {
	liShip, liPrice, liPart, liOrder   attr
	ordPrice, ordDate, ordCust, ordKey attr
	custBal                            attr
	lineitem, orders                   []attr
}

func columnsFor(sf float64) columns {
	nOrders, nPart, nCust := float64(int(1_500_000*sf)), float64(int(200_000*sf)), float64(int(150_000*sf))
	c := columns{
		liShip:   attr{"l_shipdate", 19920101, 19920101 + 70120, true},
		liPrice:  attr{"l_extendedprice", 900, 100900, false},
		liPart:   attr{"l_partkey", 1, nPart + 1, true},
		liOrder:  attr{"l_orderkey", 1, nOrders + 1, true},
		ordPrice: attr{"o_totalprice", 100, 500100, false},
		ordDate:  attr{"o_orderdate", 19920101, 19920101 + 70000, true},
		ordCust:  attr{"o_custkey", 1, nCust + 1, true},
		ordKey:   attr{"o_orderkey", 1, nOrders + 1, true},
		custBal:  attr{"c_acctbal", -999, 9001, false},
	}
	c.lineitem = []attr{c.liShip, c.liPrice, c.liPart, c.liOrder}
	c.orders = []attr{c.ordPrice, c.ordDate, c.ordCust, c.ordKey}
	return c
}

// span is a closed range on one attribute.
type span struct {
	a      attr
	lo, hi float64
}

// Which part of an attribute's domain a range is drawn in. Two anchors on
// one column of one table are drawn in opposite halves, and otherwise on
// different columns, so no anchor ever contains or overlaps another: which
// entry serves a query, and whether a session's anchor is a miss, must not
// depend on where the seed happened to put the ranges.
const (
	whole = iota
	lower
	upper
)

// pick draws a range covering sel of the attribute's whole domain inside
// the given part of it, leaving room widths free on either side (explore
// pans its ranges by one width).
func (a attr) pick(r *rand.Rand, sel float64, part int, room float64) span {
	min, max := a.min, a.max
	switch part {
	case lower:
		max = (a.min + a.max) / 2
	case upper:
		min = (a.min + a.max) / 2
	}
	w := sel * (a.max - a.min)
	lo := min + room*w + r.Float64()*(max-min-(1+2*room)*w)
	return span{a, lo, lo + w}
}

// inner shrinks the range by frac of its width on each side: a range the
// original strictly subsumes.
func (s span) inner(frac float64) span {
	w := s.hi - s.lo
	return span{s.a, s.lo + frac*w, s.hi - frac*w}
}

// pan shifts the range by dir widths: a disjoint sibling of equal
// selectivity, which the cache cannot serve from the original.
func (s span) pan(dir float64) span {
	w := (s.hi - s.lo) * dir
	return span{s.a, s.lo + w, s.hi + w}
}

func (s span) String() string {
	if s.a.integer {
		return fmt.Sprintf("%s BETWEEN %d AND %d", s.a.name, int64(s.lo), int64(s.hi))
	}
	return fmt.Sprintf("%s BETWEEN %.2f AND %.2f", s.a.name, s.lo, s.hi)
}

// qtyBand is a predicate on l_quantity (uniform 1..50) keeping width/50 of
// the rows; it starts in the given part of the domain.
func qtyBand(r *rand.Rand, width, part int) fmt.Stringer {
	min, max := 1, 51
	switch part {
	case lower:
		max = 26
	case upper:
		min = 26
	}
	lo := min + r.Intn(max-min-width+1)
	return rawPred(fmt.Sprintf("l_quantity BETWEEN %d AND %d", lo, lo+width-1))
}

type rawPred string

func (p rawPred) String() string { return string(p) }

func sel(cols, from string, groupBy string, preds ...fmt.Stringer) string {
	ps := make([]string, len(preds))
	for i, p := range preds {
		ps[i] = p.String()
	}
	s := fmt.Sprintf("SELECT %s FROM %s WHERE %s", cols, from, strings.Join(ps, " AND "))
	if groupBy != "" {
		s += " GROUP BY " + groupBy
	}
	return s
}

// Aggregate lists per source; "same range, other aggregates" cycles them.
var (
	liAggs = []string{
		"SUM(l_extendedprice), COUNT(*)",
		"AVG(l_quantity), MAX(l_extendedprice)",
		"MIN(l_discount), SUM(l_tax), COUNT(*)",
	}
	ordAggs = []string{
		"SUM(o_totalprice), COUNT(*)",
		"AVG(o_totalprice), MAX(o_orderdate)",
		"MIN(o_totalprice), COUNT(*)",
	}
	nestedAggs = []string{
		"SUM(lineitems.l_extendedprice), COUNT(*)",
		"MAX(lineitems.l_quantity), AVG(o_totalprice)",
		"MIN(lineitems.l_discount), COUNT(*)",
	}
	joinOCAggs = []string{
		"SUM(o_totalprice), COUNT(*)",
		"AVG(c_acctbal), MAX(o_totalprice)",
		"MIN(o_orderdate), COUNT(*)",
	}
	joinOLAggs = []string{
		"SUM(l_extendedprice), COUNT(*)",
		"AVG(o_totalprice), MAX(l_quantity)",
		"MIN(l_shipdate), COUNT(*)",
	}
)

const (
	liRowCols  = "l_orderkey, l_quantity, l_extendedprice, l_shipdate"
	ordRowCols = "o_orderkey, o_custkey, o_totalprice"
	joinOC     = tOrders + " JOIN " + tCustomer + " ON o_custkey = c_custkey"
	joinOL     = tOrders + " JOIN " + tLineitem + " ON o_orderkey = l_orderkey"
)

// anchors draws one range per selectivity, cycling the attributes: the
// first len(attrs) in the lower half of their domains, the rest in the
// upper half.
func anchors(r *rand.Rand, attrs []attr, sels []float64) []span {
	out := make([]span, len(sels))
	for i, s := range sels {
		part := lower
		if i >= len(attrs) {
			part = upper
		}
		out[i] = attrs[i%len(attrs)].pick(r, s, part, 0)
	}
	return out
}

// hotPool is the pool of 64 queries both hot workloads warm and then draw
// from. 8 lineitem anchors, 2 orders, 2 customer and 2 nested anchors
// carry every query, so the warmed cache holds 14 entries and every draw
// in the window is a hit.
func hotPool(r *rand.Rand, sf float64) []query {
	c := columnsFor(sf)
	li := anchors(r, c.lineitem, []float64{0.04, 0.06, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25})
	// Join inputs range over o_totalprice, which is independent of every
	// lineitem column (o_orderdate is not: l_shipdate follows it), so the
	// join's output size does not depend on where the ranges sit.
	ords := []span{c.ordPrice.pick(r, 0.2, lower, 0), c.ordPrice.pick(r, 0.3, upper, 0)}
	custs := []span{c.custBal.pick(r, 0.3, lower, 0), c.custBal.pick(r, 0.25, upper, 0)}
	nest := []span{c.ordPrice.pick(r, 0.10, whole, 0), c.ordDate.pick(r, 0.15, whole, 0)}

	var qs []query
	for i := 0; i < 20; i++ { // agg-exact
		qs = append(qs, query{SQL: sel(liAggs[(i/8)%3], tLineitem, "", li[i%8]), Class: clsExact, Table: tLineitem})
	}
	for i := 0; i < 12; i++ { // agg-subsumed
		qs = append(qs, query{SQL: sel(liAggs[i%3], tLineitem, "", li[i%8].inner(0.1+0.02*float64(i))), Class: clsSubsumed})
	}
	for i := 0; i < 10; i++ { // groupby
		key := []string{"l_quantity", "l_linenumber"}[i%2]
		qs = append(qs, query{SQL: sel(key+", "+liAggs[0], tLineitem, key, li[i%8]), Class: clsGroupBy})
	}
	for i := 0; i < 4; i++ { // join: orders x customer, orders x lineitem
		qs = append(qs, query{SQL: sel(joinOCAggs[i%3], joinOC, "", ords[i%2], custs[i/2]), Class: clsJoin})
		qs = append(qs, query{SQL: sel(joinOLAggs[i%3], joinOL, "", ords[i%2], li[2+i]), Class: clsJoin})
	}
	for i := 0; i < 4; i++ { // nested
		qs = append(qs, query{SQL: sel(nestedAggs[i%3], tNested, "", nest[i%2]), Class: clsNested})
	}
	for i := 0; i < 10; i++ { // rows: anchor x quantity band, 1-5k rows at sf 0.02
		qs = append(qs, query{SQL: sel(liRowCols, tLineitem, "", li[2+i%6], qtyBand(r, 12+i%8, whole)), Class: clsRows})
	}
	return qs
}

// classWeights is the hot workloads' fixed class mix (percent). The rows
// class is the slowest by far (it boxes thousands of rows), so the 95th
// percentile falls in the middle of its tenth of the draws, not on the edge
// between two classes.
var classWeights = [numClasses]int{clsExact: 40, clsSubsumed: 20, clsGroupBy: 15, clsJoin: 10, clsNested: 5, clsRows: 10}

// drawer draws pool indexes: a class by weight, then a query of that class
// uniformly. Classes the pool lacks are skipped.
type drawer struct {
	byClass [numClasses][]int
	total   int
}

func newDrawer(pool []query) *drawer {
	d := &drawer{}
	for i, q := range pool {
		d.byClass[q.Class] = append(d.byClass[q.Class], i)
	}
	for c, idx := range d.byClass {
		if len(idx) > 0 {
			d.total += classWeights[c]
		}
	}
	return d
}

func (d *drawer) draw(r *rand.Rand) int {
	n := r.Intn(d.total)
	for c, idx := range d.byClass {
		if len(idx) == 0 {
			continue
		}
		if n < classWeights[c] {
			return idx[r.Intn(len(idx))]
		}
		n -= classWeights[c]
	}
	panic("drawer: weights exhausted")
}

// shapeRand drives the choices that shape a sequence: the order of
// explore's sessions, the order churn draws its pool in. It is seeded with
// a constant, so every --seed runs the same access pattern (the same
// interplay of reuse, eviction and appends) over different data and
// different ranges; with a seeded shape, churn's miss count alone varied
// by a tenth from seed to seed.
func shapeRand() *rand.Rand { return rand.New(rand.NewSource(20170828)) }

// flatQueries emits the four flat classes over one anchor range: exact
// aggregates, a subsumed aggregate, a group-by and a row projection.
func flatQueries(tbl string, anchor span, aggs []string, groupKey, rowCols string, rowPred fmt.Stringer) []query {
	qs := []query{
		{sel(aggs[0], tbl, "", anchor), clsExact, tbl},
		{sel(aggs[1], tbl, "", anchor), clsExact, tbl},
		{sel(aggs[2], tbl, "", anchor.inner(0.2)), clsSubsumed, tbl},
		{sel(groupKey+", "+aggs[0], tbl, groupKey, anchor), clsGroupBy, tbl},
	}
	if rowPred != nil {
		qs = append(qs, query{sel(rowCols, tbl, "", anchor, rowPred), clsRows, tbl})
	}
	return qs
}

// churnPool is the flat classes of the hot pool over the three tables
// churn registers: lineitem.csv (appended to), lineitem.json and orders.
func churnPool(r *rand.Rand, sf float64) []query {
	c := columnsFor(sf)
	var qs []query
	for _, a := range anchors(r, c.lineitem, []float64{0.06, 0.08, 0.10, 0.12, 0.15, 0.20}) {
		qs = append(qs, flatQueries(tLineitem, a, liAggs, "l_linenumber", liRowCols, qtyBand(r, 10, whole))...)
	}
	for _, a := range anchors(r, c.lineitem, []float64{0.08, 0.10, 0.12, 0.15}) {
		qs = append(qs, flatQueries(tLineitemJSON, a, liAggs, "l_quantity", liRowCols, qtyBand(r, 10, whole))...)
	}
	for i, a := range anchors(r, c.orders, []float64{0.15, 0.20, 0.25, 0.30}) {
		var rowPred fmt.Stringer
		if i%2 == 0 {
			rowPred = rawPred("o_shippriority BETWEEN 0 AND 0")
		}
		qs = append(qs, flatQueries(tOrders, a, ordAggs, "o_shippriority", ordRowCols, rowPred)...)
	}
	return qs
}

// exploreSource is one of the sources a drill-down session explores.
type exploreSource struct {
	from     string
	class    int // class of the session's aggregate queries
	aggs     []string
	groupKey string // flat sources only
	rowCols  string // flat sources only
}

const (
	srcCSV = iota
	srcJSON
	srcNested
	srcJoinOC
	srcJoinOL
)

var exploreSources = []exploreSource{
	srcCSV:    {from: tLineitem, class: clsExact, aggs: liAggs, groupKey: "l_linenumber", rowCols: liRowCols},
	srcJSON:   {from: tLineitemJSON, class: clsExact, aggs: liAggs, groupKey: "l_quantity", rowCols: liRowCols},
	srcNested: {from: tNested, class: clsNested, aggs: nestedAggs},
	srcJoinOC: {from: joinOC, class: clsJoin, aggs: joinOCAggs},
	srcJoinOL: {from: joinOL, class: clsJoin, aggs: joinOLAggs},
}

// sessionSpec fixes everything about a session that decides how much work
// it is: its source, the column, part and selectivity of its anchor, and
// its follow-up count. A revisit returns to the anchor of its source's
// first session.
type sessionSpec struct {
	src     int
	col     func(columns) attr
	part    int
	sel     float64
	follow  int
	revisit bool
}

// exploreSpecs is one round: 15 fresh sessions (5 lineitem CSV, 3 lineitem
// JSON, 3 nested, 2+2 joins; with the revisits 35/20/20/25 % of the
// sessions) and 5 revisits, 3-6 follow-ups each, 110 queries in all. The
// first spec of each source opens the round. Sessions on one table anchor
// on different columns (or opposite halves of one), so none subsumes
// another.
var exploreSpecs = []sessionSpec{
	{src: srcCSV, col: func(c columns) attr { return c.liShip }, part: lower, sel: 0.10, follow: 3},
	{src: srcJSON, col: func(c columns) attr { return c.liShip }, sel: 0.08, follow: 3},
	{src: srcNested, col: func(c columns) attr { return c.ordPrice }, sel: 0.12, follow: 3},
	{src: srcJoinOC, col: func(c columns) attr { return c.ordPrice }, sel: 0.20, follow: 4},
	{src: srcJoinOL, col: func(c columns) attr { return c.ordCust }, sel: 0.25, follow: 3},
	{src: srcCSV, col: func(c columns) attr { return c.liShip }, part: upper, sel: 0.05, follow: 4},
	{src: srcCSV, col: func(c columns) attr { return c.liPrice }, sel: 0.15, follow: 5},
	{src: srcCSV, col: func(c columns) attr { return c.liPart }, sel: 0.20, follow: 6},
	{src: srcCSV, col: func(c columns) attr { return c.liOrder }, sel: 0.08, follow: 4},
	{src: srcJSON, col: func(c columns) attr { return c.liPrice }, sel: 0.12, follow: 5},
	{src: srcJSON, col: func(c columns) attr { return c.liPart }, sel: 0.20, follow: 6},
	{src: srcNested, col: func(c columns) attr { return c.ordDate }, sel: 0.08, follow: 4},
	{src: srcNested, col: func(c columns) attr { return c.ordCust }, sel: 0.16, follow: 6},
	{src: srcJoinOC, col: func(c columns) attr { return c.ordDate }, sel: 0.30, follow: 5},
	{src: srcJoinOL, col: func(c columns) attr { return c.ordKey }, sel: 0.15, follow: 6},
	{src: srcCSV, follow: 5, revisit: true},
	{src: srcCSV, follow: 4, revisit: true},
	{src: srcJSON, follow: 5, revisit: true},
	{src: srcNested, follow: 5, revisit: true},
	{src: srcJoinOC, follow: 4, revisit: true},
}

// session is one drill-down: an anchor range and its follow-ups.
type session struct {
	spec   sessionSpec
	anchor span
	other  fmt.Stringer // second table's range for join sources
}

// queries emits the anchor query and the follow-ups. Follow-ups cycle
// narrow (subsumed hit), other aggregates (exact hit), pan (miss), narrow,
// group-by / aggregates (exact hit), rows / narrow (subsumed hit). A
// revisit drills down differently: other aggregates, tighter ranges and a
// pan the other way.
func (s session) queries() []query {
	src := exploreSources[s.spec.src]
	variant, frac, dir := 0, 0.15, 1.0
	if s.spec.revisit {
		variant, frac, dir = 1, 0.25, -1.0
	}
	q := func(cols, groupBy string, class int, rng span) query {
		preds := []fmt.Stringer{rng}
		if s.other != nil {
			preds = append(preds, s.other)
		}
		return query{SQL: sel(cols, src.from, groupBy, preds...), Class: class}
	}
	narrowClass := src.class
	if narrowClass == clsExact {
		narrowClass = clsSubsumed
	}
	cur := s.anchor
	out := []query{q(src.aggs[variant], "", src.class, cur)}
	for k := 0; k < s.spec.follow; k++ {
		switch k {
		case 0, 3:
			out = append(out, q(src.aggs[variant], "", narrowClass, cur.inner(frac)))
		case 1:
			out = append(out, q(src.aggs[variant+1], "", src.class, cur))
		case 2:
			cur = cur.pan(dir)
			out = append(out, q(src.aggs[variant], "", src.class, cur))
		case 4:
			if src.groupKey != "" {
				out = append(out, q(src.groupKey+", "+src.aggs[0], src.groupKey, clsGroupBy, cur))
			} else {
				out = append(out, q(src.aggs[(variant+2)%3], "", src.class, cur))
			}
		default:
			if src.rowCols != "" {
				out = append(out, q(src.rowCols, "", clsRows, cur.inner(0.35)))
			} else {
				out = append(out, q(src.aggs[variant], "", narrowClass, cur.inner(0.35)))
			}
		}
	}
	return out
}

// exploreRound is one exploratory sequence. The specs and their order are
// fixed; the seed decides where the ranges sit, so every seed does the
// same amount of each kind of work.
func exploreRound(r *rand.Rand, sf float64) []query {
	c := columnsFor(sf)
	heads, shape := len(exploreSources), shapeRand()
	order := shape.Perm(heads)
	for _, i := range shape.Perm(len(exploreSpecs) - heads) {
		order = append(order, heads+i)
	}
	first := make([]session, heads) // each source's first session, for revisits
	joins := map[int]int{}          // sessions so far per join source
	var out []query
	for _, i := range order {
		spec := exploreSpecs[i]
		s := first[spec.src]
		s.spec = spec
		if !spec.revisit {
			s.anchor = spec.col(c).pick(r, spec.sel, spec.part, 1)
			// A join's second table gets its own range; a source's two
			// sessions take opposite halves of that column.
			part := lower + joins[spec.src]
			switch spec.src {
			case srcJoinOC:
				s.other = c.custBal.pick(r, 0.3, part, 0)
				joins[spec.src]++
			case srcJoinOL:
				s.other = qtyBand(r, 5, part)
				joins[spec.src]++
			}
		}
		if i < heads {
			first[spec.src] = s
		}
		out = append(out, s.queries()...)
	}
	return out
}
