// Package plan defines the logical query algebra: Scan, Select, Unnest,
// Project, Join and Aggregate nodes over heterogeneous datasets, in the
// spirit of the nested query algebra Proteus builds on (Fegaras & Maier).
// The explicit Unnest operator is what lets ReCache reason about nested
// data: a query that never unnests touches only per-record columns, while
// an unnesting query consumes the flattened view — two access patterns with
// very different costs per cache layout.
//
// Plans render to canonical strings (Canonical) so the cache manager can
// detect exactly matching operators across queries, and the Select-over-Scan
// shape at the bottom of a plan is the unit of caching (§3.2 of the paper).
package plan

import (
	"errors"
	"fmt"
	"strings"

	"recache/internal/expr"
	"recache/internal/store"
	"recache/internal/value"
)

// ScanFunc receives one raw record, the byte offset of the record in the
// underlying file (for positional-map/lazy-cache use), and a complete
// callback that parses any fields the scan's needed-set skipped, in place.
// Eager materializers call complete inside their timed caching section, so
// the extra parsing that caching forces is charged to the caching overhead
// c, exactly as §5.2 accounts it. The record's fields slice is reused
// across calls; copy if retained.
type ScanFunc func(rec value.Value, offset int64, complete func() error) error

// ScanProvider is implemented by the raw-file input plugins (internal/csvio
// and internal/jsonio, both over internal/rawfile). A provider owns the
// positional map for its file: reading the file builds it, and scans use it
// to parse only the needed fields.
type ScanProvider interface {
	// Schema returns the record schema of the dataset.
	Schema() *value.Type
	// Scan streams all records, materializing at least the needed paths
	// (nil means all fields). Unneeded fields may be VNull.
	Scan(needed []value.Path, fn ScanFunc) error
	// ScanOffsets streams only the records at the given byte offsets
	// (previously reported through ScanFunc), in the given order.
	ScanOffsets(offsets []int64, needed []value.Path, fn ScanFunc) error
	// NumRecords returns the record count, or -1 while it is not known
	// (before a raw file is first read).
	NumRecords() int
	// SizeBytes returns the raw size of the underlying file.
	SizeBytes() int64
}

// FreshnessStatus classifies a provider's backing file at revalidation
// time (mirrors freshness.Status without the dependency).
type FreshnessStatus uint8

// Freshness outcomes.
const (
	// FileUnchanged: the provider's ingested prefix still matches the file.
	FileUnchanged FreshnessStatus = iota
	// FileAppended: the file grew; the provider extended its map over the
	// new complete records in place (same epoch, larger covered range).
	FileAppended
	// FileRewritten: the file changed underneath the prefix (or vanished);
	// the provider reset to an empty state under a new epoch.
	FileRewritten
)

// String names the status.
func (s FreshnessStatus) String() string {
	switch s {
	case FileUnchanged:
		return "unchanged"
	case FileAppended:
		return "appended"
	case FileRewritten:
		return "rewritten"
	}
	return "status?"
}

// FreshnessReport describes the outcome of one provider revalidation.
type FreshnessReport struct {
	Status FreshnessStatus
	// Epoch is the provider's file epoch after the revalidation. Epochs
	// start at 1 and bump on every rewrite; appends keep the epoch.
	Epoch uint64
	// Covered is the ingested byte length after the revalidation.
	Covered int64
	// TailBytes is how many new bytes an append revalidation scanned.
	TailBytes int64
}

// ErrEpochChanged is returned by epoch-pinned scans when the provider's
// backing file was rewritten between plan time and execution; callers
// retry the query against the new epoch.
var ErrEpochChanged = errors.New("plan: provider file epoch changed")

// RefreshableProvider is implemented by providers whose backing file may
// change between queries. Refresh re-checks the file and reacts (extend on
// append, reset on rewrite); Version and ScanFrom support incremental
// cache-entry extension.
type RefreshableProvider interface {
	// Refresh re-stats the backing file and reconciles the in-memory
	// state: appends extend the data and positional map in place, rewrites
	// reset the provider under a new epoch. Loads the file if needed.
	Refresh() (FreshnessReport, error)
	// Version reports the current (epoch, covered bytes), loading the
	// file first if it was never read. Covered is monotonic within one
	// epoch, so an unchanged (epoch, covered) pair brackets a window in
	// which a full scan saw exactly the covered prefix.
	Version() (epoch uint64, covered int64)
	// ScanFrom streams the records whose byte offset is >= from, in file
	// order, with full Scan semantics otherwise.
	ScanFrom(from int64, needed []value.Path, fn ScanFunc) error
}

// EpochScanner is implemented by providers whose positional lookups can be
// pinned to a file epoch: ScanOffsetsAt fails with ErrEpochChanged instead
// of dereferencing offsets into a rewritten file.
type EpochScanner interface {
	ScanOffsetsAt(epoch uint64, offsets []int64, needed []value.Path, fn ScanFunc) error
}

// ColumnAppender is implemented by providers that can decode records
// straight from their bytes into typed leaf vectors: the miss path of nested
// data and the build path of eager cache entries. AppendColumns appends the
// records at offsets (as reported through ScanFunc, ascending) to dst, one
// vector per leaf column in value.LeafColumns order — a non-repeated leaf
// one entry per record, a repeated leaf one per list element — and, for a
// schema with a repeated field, each record's list length to lengths (0 for
// a null, absent or empty list), returning the grown lengths. A nil dst[i]
// skips leaf i. The values, nulls and errors are those a full decode of the
// same records yields (a skipped leaf raises none), with no value.Value in
// between. It is pinned to a file epoch like ScanOffsetsAt (ErrEpochChanged
// after a rewrite), and like it is a replay of known records, not a raw
// scan. After an error dst and lengths are inconsistent and must be
// discarded.
//
// PushdownCursor opens a raw scan of the file as of epoch — one full-file
// scan, counted as Scan and ScanPushdown count theirs — over the records
// passing pd (nil: every record), with no field decoded but the tested
// ones. The cursor hands out their byte offsets in ascending chunks; it
// fails with ErrEpochChanged once the file was rewritten.
type ColumnAppender interface {
	AppendColumns(epoch uint64, offsets []int64, dst []*store.Vec, lengths []int32) ([]int32, error)
	PushdownCursor(epoch uint64, pd *expr.Pushdown) (OffsetCursor, error)
}

// OffsetCursor appends the offsets of up to n more passing records to dst
// and returns it, with the number of records the pushdown rejected so far;
// it appends none once the scan is done. Each call resumes where the last
// one stopped.
type OffsetCursor func(dst []int64, n int) (offsets []int64, skipped int64, err error)

// PushdownScanner is implemented by providers that can evaluate pushed
// single-column predicates *below* parsing: the scan decodes only the
// pushed test columns first (via the positional map), runs the fused
// interval kernels on them, and skips the rest of the record on failure —
// falling back to the needed-field decode only for surviving records. It
// returns how many records were skipped early. Semantics are otherwise
// identical to Scan filtered by the pushdown: the stream contains exactly
// the records passing every pushed conjunct (null/absent values fail).
type PushdownScanner interface {
	ScanPushdown(pd *expr.Pushdown, needed []value.Path, fn ScanFunc) (skipped int64, err error)
}

// Format identifies a raw data format.
type Format string

// Supported raw formats.
const (
	FormatCSV  Format = "csv"
	FormatJSON Format = "json"
)

// Dataset is a registered raw data source.
type Dataset struct {
	Name     string
	Format   Format
	Provider ScanProvider
}

// Schema returns the dataset's record schema.
func (d *Dataset) Schema() *value.Type { return d.Provider.Schema() }

// Node is a logical plan operator.
type Node interface {
	// OutSchema is the record schema of the rows this node emits.
	OutSchema() *value.Type
	// Canonical renders a normalized representation used for cache matching.
	Canonical() string
	// Children returns the input operators.
	Children() []Node
}

// Scan reads a raw dataset, emitting one row per record (fields aligned
// with the dataset schema).
type Scan struct {
	DS *Dataset
}

// OutSchema implements Node.
func (s *Scan) OutSchema() *value.Type { return s.DS.Schema() }

// Canonical implements Node.
func (s *Scan) Canonical() string { return "scan(" + s.DS.Name + ")" }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Select filters rows by a predicate. A nil predicate passes everything
// (the planner normalizes every Scan to sit under a Select so that full
// table reads are cacheable operators too).
type Select struct {
	Pred  expr.Expr
	Child Node
}

// OutSchema implements Node.
func (s *Select) OutSchema() *value.Type { return s.Child.OutSchema() }

// Canonical implements Node.
func (s *Select) Canonical() string {
	p := "true"
	if s.Pred != nil {
		p = s.Pred.Canonical()
	}
	return "select(" + p + "," + s.Child.Canonical() + ")"
}

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// Unnest flattens the repeated field of its input records: each input row
// becomes one output row per list element, with parent fields duplicated
// and all leaves addressed by dotted names. Records with empty lists emit
// nothing (inner unnest).
type Unnest struct {
	ListPath value.Path
	Child    Node
	out      *value.Type
}

// NewUnnest builds an Unnest node, computing the flattened schema.
func NewUnnest(child Node) (*Unnest, error) {
	lp := value.RepeatedField(child.OutSchema())
	if lp == nil {
		return nil, fmt.Errorf("plan: unnest on flat schema %s", child.OutSchema())
	}
	flat, _, err := value.FlattenSchema(child.OutSchema())
	if err != nil {
		return nil, err
	}
	return &Unnest{ListPath: lp, Child: child, out: flat}, nil
}

// OutSchema implements Node.
func (u *Unnest) OutSchema() *value.Type { return u.out }

// Canonical implements Node.
func (u *Unnest) Canonical() string {
	return "unnest(" + u.ListPath.String() + "," + u.Child.Canonical() + ")"
}

// Children implements Node.
func (u *Unnest) Children() []Node { return []Node{u.Child} }

// Project computes named expressions over each input row.
type Project struct {
	Exprs []expr.Expr
	Names []string
	Child Node
	out   *value.Type
}

// NewProject builds a Project node, type-checking the expressions.
func NewProject(exprs []expr.Expr, names []string, child Node) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("plan: project arity mismatch")
	}
	fields := make([]value.Field, len(exprs))
	for i, e := range exprs {
		t, err := e.Type(child.OutSchema())
		if err != nil {
			return nil, err
		}
		fields[i] = value.F(names[i], t)
	}
	return &Project{Exprs: exprs, Names: names, Child: child, out: value.TRecord(fields...)}, nil
}

// OutSchema implements Node.
func (p *Project) OutSchema() *value.Type { return p.out }

// Canonical implements Node.
func (p *Project) Canonical() string {
	parts := make([]string, len(p.Exprs))
	for i := range p.Exprs {
		parts[i] = p.Names[i] + "=" + p.Exprs[i].Canonical()
	}
	return "project(" + strings.Join(parts, ",") + "," + p.Child.Canonical() + ")"
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Join is an equi-join; output rows concatenate left fields then right
// fields. Field names of the two sides must not clash.
type Join struct {
	Left, Right       Node
	LeftKey, RightKey expr.Expr
}

// NewJoin builds a Join, validating key types and name disjointness.
func NewJoin(left, right Node, lkey, rkey expr.Expr) (*Join, error) {
	lt, err := lkey.Type(left.OutSchema())
	if err != nil {
		return nil, err
	}
	rt, err := rkey.Type(right.OutSchema())
	if err != nil {
		return nil, err
	}
	if lt.IsNumeric() != rt.IsNumeric() && lt.Kind != rt.Kind {
		return nil, fmt.Errorf("plan: join key types %s and %s incompatible", lt, rt)
	}
	seen := map[string]bool{}
	for _, f := range left.OutSchema().Fields {
		seen[f.Name] = true
	}
	for _, f := range right.OutSchema().Fields {
		if seen[f.Name] {
			return nil, fmt.Errorf("plan: join field name clash %q", f.Name)
		}
	}
	return &Join{Left: left, Right: right, LeftKey: lkey, RightKey: rkey}, nil
}

// OutSchema implements Node. It is recomputed from the children on every
// call rather than cached at construction: the cache rewrite replaces a
// join's inputs with CachedScan nodes narrowed to the query's needed
// columns, and a schema snapshotted before that rewrite would make every
// operator above the join resolve column slots against row shapes the
// narrowed inputs no longer produce (reading the wrong columns — silently —
// whenever a join input was served from the cache).
func (j *Join) OutSchema() *value.Type {
	var fields []value.Field
	fields = append(fields, j.Left.OutSchema().Fields...)
	fields = append(fields, j.Right.OutSchema().Fields...)
	return value.TRecord(fields...)
}

// Canonical implements Node.
func (j *Join) Canonical() string {
	return "join(" + j.LeftKey.Canonical() + "=" + j.RightKey.Canonical() + "," +
		j.Left.Canonical() + "," + j.Right.Canonical() + ")"
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL spelling.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	}
	return "AGG?"
}

// AggSpec is one aggregate output: Func over Arg (nil Arg = COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	Name string
}

// Aggregate groups rows (optionally) and computes aggregates. With no
// GroupBy the output is a single row.
type Aggregate struct {
	Aggs       []AggSpec
	GroupBy    []expr.Expr
	GroupNames []string
	Child      Node
	out        *value.Type
}

// NewAggregate builds an Aggregate node, type-checking everything.
func NewAggregate(aggs []AggSpec, groupBy []expr.Expr, groupNames []string, child Node) (*Aggregate, error) {
	if len(groupBy) != len(groupNames) {
		return nil, fmt.Errorf("plan: group-by arity mismatch")
	}
	var fields []value.Field
	for i, g := range groupBy {
		t, err := g.Type(child.OutSchema())
		if err != nil {
			return nil, err
		}
		fields = append(fields, value.F(groupNames[i], t))
	}
	for _, a := range aggs {
		var t *value.Type
		switch {
		case a.Func == AggCount:
			t = value.TInt
		default:
			if a.Arg == nil {
				return nil, fmt.Errorf("plan: %s requires an argument", a.Func)
			}
			at, err := a.Arg.Type(child.OutSchema())
			if err != nil {
				return nil, err
			}
			if !at.IsNumeric() && (a.Func == AggSum || a.Func == AggAvg) {
				return nil, fmt.Errorf("plan: %s over non-numeric %s", a.Func, at)
			}
			if a.Func == AggAvg || at.Kind == value.Float || a.Func == AggSum {
				t = value.TFloat
			} else {
				t = at
			}
		}
		if a.Arg != nil {
			if _, err := a.Arg.Type(child.OutSchema()); err != nil {
				return nil, err
			}
		}
		fields = append(fields, value.F(a.Name, t))
	}
	return &Aggregate{Aggs: aggs, GroupBy: groupBy, GroupNames: groupNames,
		Child: child, out: value.TRecord(fields...)}, nil
}

// OutSchema implements Node.
func (a *Aggregate) OutSchema() *value.Type { return a.out }

// Canonical implements Node.
func (a *Aggregate) Canonical() string {
	parts := make([]string, 0, len(a.Aggs)+len(a.GroupBy))
	for i, g := range a.GroupBy {
		parts = append(parts, "g:"+a.GroupNames[i]+"="+g.Canonical())
	}
	for _, s := range a.Aggs {
		arg := "*"
		if s.Arg != nil {
			arg = s.Arg.Canonical()
		}
		parts = append(parts, s.Func.String()+"("+arg+")")
	}
	return "agg(" + strings.Join(parts, ",") + "," + a.Child.Canonical() + ")"
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// CachedScan replaces a [Unnest?]-Select-Scan subtree after a cache hit: it
// reads rows straight from an in-memory cache entry. Flat selects the scan
// granularity: flattened rows (when the original subtree ended in Unnest)
// or per-record rows. Residual is the leftover predicate to re-apply when
// the hit was by subsumption rather than exact match (§3.3).
type CachedScan struct {
	Entry    any // *cache.Entry; opaque here to avoid an import cycle
	DS       *Dataset
	Flat     bool
	Residual expr.Expr
	Out      *value.Type
	Label    string // for EXPLAIN-style output
}

// OutSchema implements Node.
func (c *CachedScan) OutSchema() *value.Type { return c.Out }

// Canonical implements Node.
func (c *CachedScan) Canonical() string {
	r := "true"
	if c.Residual != nil {
		r = c.Residual.Canonical()
	}
	return fmt.Sprintf("cachedscan(%s,flat=%v,residual=%s)", c.DS.Name, c.Flat, r)
}

// Children implements Node.
func (c *CachedScan) Children() []Node { return nil }

// Materialize wraps a Select-over-Scan subtree whose output should be
// admitted to the cache while the query runs (§3.2: a materializer is
// inserted as the parent of each select operator).
type Materialize struct {
	Child Node // Select (over Scan)
	Spec  any  // *cache.BuildSpec; opaque here to avoid an import cycle
}

// OutSchema implements Node.
func (m *Materialize) OutSchema() *value.Type { return m.Child.OutSchema() }

// Canonical implements Node.
func (m *Materialize) Canonical() string { return "materialize(" + m.Child.Canonical() + ")" }

// Children implements Node.
func (m *Materialize) Children() []Node { return []Node{m.Child} }

// NonRepeatedSchema returns the flat record schema of the non-repeated leaf
// columns of a (possibly nested) schema, with dotted names — the row shape
// of a record-granularity cache scan.
func NonRepeatedSchema(schema *value.Type) (*value.Type, []string, error) {
	cols, err := value.LeafColumns(schema)
	if err != nil {
		return nil, nil, err
	}
	var fields []value.Field
	var names []string
	for _, c := range cols {
		if c.Repeated {
			continue
		}
		fields = append(fields, value.Field{Name: c.Name(), Type: c.Type, Optional: c.MaxDef > 0})
		names = append(names, c.Name())
	}
	return value.TRecord(fields...), names, nil
}

// Walk visits n and its descendants in pre-order.
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// Explain renders an indented operator tree for CLI/debug output.
func Explain(n Node) string { return ExplainAnnotated(n, nil) }

// ExplainAnnotated renders the operator tree like Explain, appending the
// annotator's note (when non-empty) to each node's line. The engine uses it
// to decorate nodes with pushdown, vectorization and freshness notes.
func ExplainAnnotated(n Node, note func(Node) string) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch x := n.(type) {
		case *Scan:
			fmt.Fprintf(&b, "Scan %s [%s]", x.DS.Name, x.DS.Format)
		case *Select:
			p := "true"
			if x.Pred != nil {
				p = x.Pred.Canonical()
			}
			fmt.Fprintf(&b, "Select %s", p)
		case *Unnest:
			fmt.Fprintf(&b, "Unnest %s", x.ListPath)
		case *Project:
			fmt.Fprintf(&b, "Project %s", strings.Join(x.Names, ", "))
		case *Join:
			fmt.Fprintf(&b, "Join %s = %s", x.LeftKey.Canonical(), x.RightKey.Canonical())
		case *Aggregate:
			fmt.Fprintf(&b, "Aggregate %s", x.Canonical())
		case *CachedScan:
			fmt.Fprintf(&b, "CachedScan %s (%s)", x.DS.Name, x.Label)
		case *Materialize:
			b.WriteString("Materialize")
		default:
			fmt.Fprintf(&b, "%T", n)
		}
		if note != nil {
			if s := note(n); s != "" {
				b.WriteString(" (" + s + ")")
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}
