package recache

import (
	"fmt"
	"strings"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/sqlparse"
	"recache/internal/value"
)

// planned carries everything the executor and cache rewrite need.
type planned struct {
	root        plan.Node
	neededPaths map[string][]value.Path // per dataset: raw-scan projections
	neededNames map[string][]string     // per dataset: dotted leaf names
	// recordRef is set when the query names a whole sub-record (SELECT k,
	// origin with origin record(...)). Cache scans expose flat leaf columns
	// ("origin.country"), under which such a reference does not resolve, so
	// the plan skips the cache rewrite and runs on the raw scan.
	recordRef bool
}

// planCacheSize bounds the plan cache: a full cache is emptied and refills
// with whatever the workload asks next. It is five times the most distinct
// texts one engine of the benchmark's workloads plans (explore, 101).
const planCacheSize = 512

// plan returns sql's plan from the plan cache, parsing and planning it on a
// miss. The cache is keyed by the exact SQL text and holds only plans that
// built: an error is returned afresh every time. A cached plan is shared
// by every query with that text, concurrently: nothing may write to it —
// the cache rewrite copies the nodes it replaces children of, and the
// needed-column maps are read-only. register empties the cache. The caller
// holds e.mu read-locked.
func (e *Engine) plan(sql string) (*planned, error) {
	e.planMu.Lock()
	pl, ok := e.plans[sql]
	e.planMu.Unlock()
	if ok {
		return pl, nil
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if pl, err = e.buildPlan(q); err != nil {
		return nil, err
	}
	e.planMu.Lock()
	if len(e.plans) >= planCacheSize || e.plans == nil {
		e.plans = make(map[string]*planned)
	}
	e.plans[sql] = pl
	e.planMu.Unlock()
	return pl, nil
}

// buildPlan turns a parsed query into a logical plan:
//
//	Scan → Select(non-nested conjuncts)            ← the cacheable operator
//	     → [Unnest → Select(nested conjuncts)]     ← only if nested refs
//	     → joins (left-deep, in FROM order)
//	     → post-join Select (cross-table residue)
//	     → Aggregate | Project
func (e *Engine) buildPlan(q *sqlparse.Query) (*planned, error) {
	type tbl struct {
		ds     *plan.Dataset
		base   []expr.Expr // non-nested single-table conjuncts
		nested []expr.Expr // conjuncts touching repeated columns
		unnest bool
		refs   map[string]bool // referenced dotted columns
	}
	tables := make([]*tbl, len(q.Tables))
	byName := map[string]*tbl{}
	for i, name := range q.Tables {
		ds, ok := e.datasets[name]
		if !ok {
			return nil, fmt.Errorf("recache: unknown table %q", name)
		}
		tables[i] = &tbl{ds: ds, refs: map[string]bool{}}
		byName[name] = tables[i]
	}

	// resolve attributes a dotted column to exactly one table and reports
	// whether it crosses a repeated field.
	recordRef := false
	resolve := func(col string) (*tbl, bool, error) {
		var owner *tbl
		var repeated bool
		path := value.ParsePath(col)
		for _, t := range tables {
			if typ, rep, ok := path.Lookup(t.ds.Schema()); ok {
				if owner != nil {
					return nil, false, fmt.Errorf("recache: ambiguous column %q", col)
				}
				owner, repeated = t, rep
				recordRef = recordRef || typ.Kind == value.Record
			}
		}
		if owner == nil {
			return nil, false, fmt.Errorf("recache: unknown column %q", col)
		}
		return owner, repeated, nil
	}

	note := func(col string) (*tbl, bool, error) {
		t, rep, err := resolve(col)
		if err != nil {
			return nil, false, err
		}
		t.refs[col] = true
		if rep {
			t.unnest = true
		}
		return t, rep, nil
	}

	// Join conditions: explicit JOIN ... ON plus implicit col=col conjuncts.
	type joinCond struct {
		a, b       *tbl
		aCol, bCol string
	}
	var joins []joinCond
	for _, jc := range q.Joins {
		ta, _, err := note(jc.LeftCol)
		if err != nil {
			return nil, err
		}
		tb, _, err := note(jc.RightCol)
		if err != nil {
			return nil, err
		}
		if ta == tb {
			return nil, fmt.Errorf("recache: join keys %q, %q resolve to the same table", jc.LeftCol, jc.RightCol)
		}
		joins = append(joins, joinCond{a: ta, b: tb, aCol: jc.LeftCol, bCol: jc.RightCol})
	}

	// Distribute WHERE conjuncts.
	var crossResidue []expr.Expr
	for _, c := range expr.Conjuncts(q.Where) {
		cols := expr.Columns(c)
		if len(cols) == 0 {
			crossResidue = append(crossResidue, c)
			continue
		}
		// Implicit equi-join: col = col across tables.
		if b, ok := c.(*expr.Bin); ok && b.Op == expr.OpEq {
			lc, lok := b.L.(*expr.Col)
			rc, rok := b.R.(*expr.Col)
			if lok && rok {
				ta, _, err := note(lc.Path.String())
				if err != nil {
					return nil, err
				}
				tb, _, err := note(rc.Path.String())
				if err != nil {
					return nil, err
				}
				if ta != tb {
					joins = append(joins, joinCond{a: ta, b: tb, aCol: lc.Path.String(), bCol: rc.Path.String()})
					continue
				}
			}
		}
		var owner *tbl
		sameTable, anyRepeated := true, false
		for _, col := range cols {
			t, rep, err := note(col.String())
			if err != nil {
				return nil, err
			}
			anyRepeated = anyRepeated || rep
			if owner == nil {
				owner = t
			} else if owner != t {
				sameTable = false
			}
		}
		switch {
		case !sameTable:
			crossResidue = append(crossResidue, c)
		case anyRepeated:
			owner.nested = append(owner.nested, c)
		default:
			owner.base = append(owner.base, c)
		}
	}

	// Select items and group-by references.
	for _, it := range q.Select {
		if it.Star {
			continue
		}
		if _, _, err := note(it.Col); err != nil {
			return nil, err
		}
	}
	for _, g := range q.GroupBy {
		if _, _, err := note(g); err != nil {
			return nil, err
		}
	}

	// Per-table access chains.
	chains := make(map[*tbl]plan.Node, len(tables))
	for _, t := range tables {
		var n plan.Node = &plan.Select{Pred: expr.And(t.base...), Child: &plan.Scan{DS: t.ds}}
		if t.unnest {
			u, err := plan.NewUnnest(n)
			if err != nil {
				return nil, err
			}
			n = u
			if len(t.nested) > 0 {
				n = &plan.Select{Pred: expr.And(t.nested...), Child: n}
			}
		} else if len(t.nested) > 0 {
			return nil, fmt.Errorf("recache: internal: nested conjuncts without unnest")
		}
		chains[t] = n
	}

	// Left-deep join tree in FROM order, connected by available conditions.
	root := chains[tables[0]]
	joined := map[*tbl]bool{tables[0]: true}
	remaining := append([]joinCond(nil), joins...)
	for count := 1; count < len(tables); count++ {
		found := -1
		for i, jc := range remaining {
			if joined[jc.a] != joined[jc.b] { // connects the joined set to a new table
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("recache: no join condition connects all tables (cartesian products unsupported)")
		}
		jc := remaining[found]
		remaining = append(remaining[:found], remaining[found+1:]...)
		inner, innerCol, outerCol := jc.b, jc.bCol, jc.aCol
		if joined[jc.b] {
			inner, innerCol, outerCol = jc.a, jc.aCol, jc.bCol
		}
		j, err := plan.NewJoin(root, chains[inner], expr.C(outerCol), expr.C(innerCol))
		if err != nil {
			return nil, err
		}
		root = j
		joined[inner] = true
	}
	// Leftover join conditions between already-joined tables become filters.
	for _, jc := range remaining {
		crossResidue = append(crossResidue, expr.Cmp(expr.OpEq, expr.C(jc.aCol), expr.C(jc.bCol)))
	}
	if pred := expr.And(crossResidue...); pred != nil {
		root = &plan.Select{Pred: pred, Child: root}
	}

	// Aggregation / projection head.
	hasAgg := false
	for _, it := range q.Select {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	switch {
	case hasAgg || len(q.GroupBy) > 0:
		groupSet := map[string]bool{}
		for _, g := range q.GroupBy {
			groupSet[g] = true
		}
		var aggs []plan.AggSpec
		for _, it := range q.Select {
			if it.Agg == "" {
				if !groupSet[it.Col] {
					return nil, fmt.Errorf("recache: column %q must appear in GROUP BY", it.Col)
				}
				continue
			}
			spec := plan.AggSpec{Func: aggFunc(it.Agg), Name: it.As}
			if !it.Star {
				spec.Arg = expr.C(it.Col)
			}
			if spec.Name == "" {
				if it.Star {
					spec.Name = "count"
				} else {
					spec.Name = it.Agg + "_" + strings.ReplaceAll(it.Col, ".", "_")
				}
			}
			aggs = append(aggs, spec)
		}
		var groupBy []expr.Expr
		var groupNames []string
		for _, g := range q.GroupBy {
			groupBy = append(groupBy, expr.C(g))
			groupNames = append(groupNames, g)
		}
		a, err := plan.NewAggregate(aggs, groupBy, groupNames, root)
		if err != nil {
			return nil, err
		}
		root = a
	default:
		var exprs []expr.Expr
		var names []string
		for _, it := range q.Select {
			exprs = append(exprs, expr.C(it.Col))
			name := it.As
			if name == "" {
				name = it.Col
			}
			names = append(names, name)
		}
		p, err := plan.NewProject(exprs, names, root)
		if err != nil {
			return nil, err
		}
		root = p
	}

	// Needed-column maps. Every referenced column of a table becomes a raw
	// scan projection and a cache-scan projection.
	neededPaths := map[string][]value.Path{}
	neededNames := map[string][]string{}
	for _, t := range tables {
		names := make([]string, 0, len(t.refs))
		for col := range t.refs {
			names = append(names, col)
		}
		// Deterministic order (map iteration is random).
		sortStrings(names)
		paths := make([]value.Path, len(names))
		for i, n := range names {
			paths[i] = value.ParsePath(n)
		}
		neededPaths[t.ds.Name] = paths
		neededNames[t.ds.Name] = leafNames(t.ds.Schema(), names)
	}
	return &planned{root: root, neededPaths: neededPaths, neededNames: neededNames, recordRef: recordRef}, nil
}

func aggFunc(name string) plan.AggFunc {
	switch name {
	case "count":
		return plan.AggCount
	case "sum":
		return plan.AggSum
	case "avg":
		return plan.AggAvg
	case "min":
		return plan.AggMin
	case "max":
		return plan.AggMax
	}
	return plan.AggCount
}

// leafNames expands referenced columns to leaf-column names: a reference to
// a non-leaf field (e.g. a whole sub-record) covers all leaves below it.
func leafNames(schema *value.Type, cols []string) []string {
	leaves, err := value.LeafColumnsCached(schema)
	if err != nil {
		return cols
	}
	out := []string{} // empty, not nil: to the cache rewrite nil means every column
	seen := map[string]bool{}
	for _, c := range cols {
		matched := false
		for _, l := range leaves {
			n := l.Name()
			if n == c || strings.HasPrefix(n, c+".") {
				matched = true
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
		if !matched && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
