package value

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Path names a (possibly nested) field: a sequence of record field names.
// Descending through a List<Record> field is written as the list field name
// followed by the element field name, e.g. {"lineitems", "l_quantity"}.
type Path []string

// ParsePath splits a dotted path string ("lineitems.l_quantity").
func ParsePath(s string) Path {
	if s == "" {
		return nil
	}
	return Path(strings.Split(s, "."))
}

// String joins the path with dots.
func (p Path) String() string { return strings.Join(p, ".") }

// Equal reports element-wise equality.
func (p Path) Equal(o Path) bool {
	if len(p) != len(o) {
		return false
	}
	for i := range p {
		if p[i] != o[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p starts with prefix.
func (p Path) HasPrefix(prefix Path) bool {
	if len(prefix) > len(p) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

// Resolve walks the path through a (record) type. It descends through List
// types implicitly (the path names the list field, then continues into the
// element type). It returns the leaf type and whether any List was crossed
// (i.e. the path addresses repeated data).
func (p Path) Resolve(t *Type) (leaf *Type, repeated bool, err error) {
	cur := t
	for i, name := range p {
		if cur.Kind == List {
			cur = cur.Elem
		}
		if cur.Kind != Record {
			return nil, false, fmt.Errorf("value: path %q: %q is not a record", p, Path(p[:i]))
		}
		idx, ft := cur.FieldIndex(name)
		if idx < 0 {
			return nil, false, fmt.Errorf("value: path %q: no field %q in %s", p, name, cur)
		}
		cur = ft
		if cur.Kind == List {
			repeated = true
		}
	}
	if cur.Kind == List {
		cur = cur.Elem
	}
	return cur, repeated, nil
}

// LeafColumn describes one leaf of a nested schema in document order,
// together with the Dremel repetition/definition levels needed by the
// Parquet-style store.
type LeafColumn struct {
	Path     Path
	Type     *Type // primitive leaf type
	MaxRep   int   // 0 for non-repeated leaves, 1 under the (single) list
	MaxDef   int   // number of optional/repeated ancestors incl. the leaf's own optionality
	Repeated bool  // true iff some ancestor is a List
}

// Name returns the dotted column name.
func (c LeafColumn) Name() string { return c.Path.String() }

// leafMemo caches LeafColumns results by schema pointer. Types are
// immutable once built and long-lived schemas keep stable pointers (table
// schemas, cache-entry schemas, interned wire schemas), so decode-heavy
// paths — a client unpacking one result batch per response, the spill tier
// re-admitting entries — skip the walk entirely. Short-lived schema
// pointers just miss; bounded by wholesale reset so they cannot grow the
// memo without limit. The cached slice is shared: callers must not mutate
// what LeafColumnsCached returns.
var leafMemo sync.Map // *Type -> []LeafColumn

var leafMemoLen atomic.Int64

const leafMemoCap = 4096

// LeafColumnsCached is LeafColumns with a pointer-keyed memo. Errors are
// not cached (they are a schema-construction bug, not a hot path).
func LeafColumnsCached(t *Type) ([]LeafColumn, error) {
	if got, ok := leafMemo.Load(t); ok {
		return got.([]LeafColumn), nil
	}
	cols, err := LeafColumns(t)
	if err != nil {
		return nil, err
	}
	if leafMemoLen.Add(1) > leafMemoCap {
		leafMemo.Clear()
		leafMemoLen.Store(1)
	}
	leafMemo.Store(t, cols)
	return cols, nil
}

// LeafColumns enumerates every primitive leaf of a record schema in
// depth-first field order. It returns an error if the schema nests more
// than one repeated level on any root-to-leaf path, or if a list element is
// itself a list: the storage layer supports at most one repeated ancestor
// per leaf (which covers all datasets in the paper; see DESIGN.md).
func LeafColumns(t *Type) ([]LeafColumn, error) {
	if t == nil || t.Kind != Record {
		return nil, fmt.Errorf("value: LeafColumns requires a record schema, got %s", t)
	}
	var out []LeafColumn
	var walk func(t *Type, path Path, rep, def int) error
	walk = func(t *Type, path Path, rep, def int) error {
		switch t.Kind {
		case Record:
			for _, f := range t.Fields {
				fdef := def
				if f.Optional {
					fdef++
				}
				ft := f.Type
				frep := rep
				if ft.Kind == List {
					if rep >= 1 {
						return fmt.Errorf("value: schema nests repeated field %q under another repeated field", f.Name)
					}
					frep = rep + 1
					fdef++ // a repeated field is definable (empty list ⇒ def < this level)
					ft = ft.Elem
					if ft.Kind == List {
						return fmt.Errorf("value: list-of-list field %q unsupported", f.Name)
					}
				}
				np := append(append(Path{}, path...), f.Name)
				if ft.Kind == Record {
					if err := walk(ft, np, frep, fdef); err != nil {
						return err
					}
				} else {
					out = append(out, LeafColumn{Path: np, Type: ft, MaxRep: frep, MaxDef: fdef, Repeated: frep > 0})
				}
			}
			return nil
		default:
			return fmt.Errorf("value: unexpected non-record in walk: %s", t)
		}
	}
	if err := walk(t, nil, 0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// repMemo caches RepeatedField by schema pointer, under the same
// stable-pointer reasoning (and the same bound) as leafMemo. A nil path
// (flat schema) is cached too — that is the common, allocation-heavy case.
var repMemo sync.Map // *Type -> Path

var repMemoLen atomic.Int64

// RepeatedFieldCached is RepeatedField with a pointer-keyed memo. The
// cached path is shared: callers must not mutate it.
func RepeatedFieldCached(t *Type) Path {
	if got, ok := repMemo.Load(t); ok {
		return got.(Path)
	}
	p := RepeatedField(t)
	if repMemoLen.Add(1) > leafMemoCap {
		repMemo.Clear()
		repMemoLen.Store(1)
	}
	repMemo.Store(t, p)
	return p
}

// RepeatedField returns the path of the single repeated (list) field of the
// schema, or nil if the schema is flat. The single-repeated-field constraint
// is validated by LeafColumns.
func RepeatedField(t *Type) Path {
	if t == nil || t.Kind != Record {
		return nil
	}
	var find func(t *Type, path Path) Path
	find = func(t *Type, path Path) Path {
		for _, f := range t.Fields {
			np := append(append(Path{}, path...), f.Name)
			if f.Type.Kind == List {
				return np
			}
			if f.Type.Kind == Record {
				if p := find(f.Type, np); p != nil {
					return p
				}
			}
		}
		return nil
	}
	return find(t, nil)
}

// Get extracts the value at path p from a record value typed by t.
// Crossing a List yields the list value itself (callers that need per-element
// access flatten first). Missing optional fields yield VNull.
func Get(v Value, t *Type, p Path) Value {
	cur, curT := v, t
	for _, name := range p {
		if curT.Kind == List {
			// Address the list itself; deeper access requires flattening.
			return cur
		}
		if curT.Kind != Record || cur.Kind != Record {
			return VNull
		}
		idx, ft := curT.FieldIndex(name)
		if idx < 0 || idx >= len(cur.L) {
			return VNull
		}
		cur, curT = cur.L[idx], ft
	}
	return cur
}

// Indexes resolves p against record type t into the field index of each
// step, which GetAt follows without comparing a name. Like Get it stops at
// the first List it reaches — that index addresses the list itself — and a
// step t has no field for resolves to -1, where GetAt yields VNull.
func (p Path) Indexes(t *Type) []int {
	idx := make([]int, 0, len(p))
	for _, name := range p {
		if t == nil || t.Kind != Record {
			break
		}
		i, ft := t.FieldIndex(name)
		idx = append(idx, i)
		t = ft
	}
	return idx
}

// GetAt is Get along a path resolved once by Path.Indexes.
func GetAt(v Value, idx []int) Value {
	for _, i := range idx {
		if v.Kind != Record || i < 0 || i >= len(v.L) {
			return VNull
		}
		v = v.L[i]
	}
	return v
}

// FlattenSchema returns the flat record type whose fields are the dotted
// leaf columns of t, in document order. This is the schema of the relational
// (flattened) view of nested data described in §4 of the paper.
func FlattenSchema(t *Type) (*Type, []LeafColumn, error) {
	cols, err := LeafColumns(t)
	if err != nil {
		return nil, nil, err
	}
	fields := make([]Field, len(cols))
	for i, c := range cols {
		fields[i] = Field{Name: c.Name(), Type: c.Type, Optional: c.MaxDef > 0}
	}
	return TRecord(fields...), cols, nil
}

// FlattenRecord expands one nested record into flat rows (one per element of
// the repeated field; exactly one row if the schema is flat or the list is
// absent... an empty or null list yields zero rows, matching inner-unnest
// semantics). Each row is aligned with the columns from LeafColumns.
func FlattenRecord(v Value, t *Type, cols []LeafColumn) [][]Value {
	card := 1
	hasRepeated := false
	for _, c := range cols {
		if c.Repeated {
			hasRepeated = true
			break
		}
	}
	var listVal Value
	var listPath Path
	if hasRepeated {
		listPath = RepeatedField(t)
		listVal = Get(v, t, listPath)
		if listVal.Kind != List {
			card = 0
		} else {
			card = len(listVal.L)
		}
	}
	if card == 0 {
		return nil
	}
	rows := make([][]Value, card)
	for r := 0; r < card; r++ {
		row := make([]Value, len(cols))
		for ci, c := range cols {
			if !c.Repeated {
				row[ci] = Get(v, t, c.Path)
				continue
			}
			elem := listVal.L[r]
			// Element path: the suffix of c.Path after the list path.
			suffix := c.Path[len(listPath):]
			elemT := mustListElem(t, listPath)
			row[ci] = Get(elem, elemT, suffix)
		}
		rows[r] = row
	}
	return rows
}

func mustListElem(t *Type, listPath Path) *Type {
	cur := t
	for _, name := range listPath {
		_, ft := cur.FieldIndex(name)
		cur = ft
	}
	return cur.Elem
}

// RecordCardinality returns the number of flat rows the record expands to.
func RecordCardinality(v Value, t *Type) int {
	lp := RepeatedField(t)
	if lp == nil {
		return 1
	}
	lv := Get(v, t, lp)
	if lv.Kind != List {
		return 0
	}
	return len(lv.L)
}
