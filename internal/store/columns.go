package store

import (
	"fmt"
	"slices"

	"recache/internal/value"
)

// Leaf vectors are the one representation a build fills and a store adopts:
// records striped by value.LeafColumns into one vector per leaf column — a
// non-repeated leaf holds one entry per record, a repeated leaf one entry
// per list element — and, for a schema with a repeated field, every
// record's list length (0 for a null, absent or empty list). A typed raw
// decoder writes them straight from the file's bytes; both layouts derive
// the rest from the lengths: the empty-list placeholders, and the columnar
// layout's repeated parents.

// NewColumns returns one empty vector per leaf column of schema, in
// value.LeafColumns order, for a decoder to fill and FromColumns to adopt;
// nil when LeafColumns rejects the schema.
func NewColumns(schema *value.Type) []*Vec {
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return nil
	}
	vecs := make([]*Vec, len(cols))
	for i, c := range cols {
		vecs[i] = newVec(c.Type)
	}
	return vecs
}

// FromColumns adopts filled NewColumns vectors and the records' list
// lengths (nil for a schema without a repeated field) as a store in layout:
// their Parquet form, or the columnar layout derived from it. The vectors
// belong to the store afterwards.
func FromColumns(schema *value.Type, layout Layout, vecs []*Vec, lengths []int32) (Store, error) {
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return nil, err
	}
	if layout != LayoutColumnar && layout != LayoutParquet {
		return nil, fmt.Errorf("store: unknown layout %v", layout)
	}
	if len(vecs) != len(cols) {
		return nil, fmt.Errorf("store: %d column vectors for the %d leaf columns of %s", len(vecs), len(cols), schema)
	}
	listPath := value.RepeatedFieldCached(schema)
	if listPath == nil && lengths != nil {
		return nil, fmt.Errorf("store: list lengths for %s, which has no repeated field", schema)
	}
	nRecs, nElems := len(lengths), 0
	for _, l := range lengths {
		if l < 0 {
			return nil, fmt.Errorf("store: negative list length %d", l)
		}
		nElems += int(l)
	}
	if listPath == nil && len(vecs) > 0 {
		nRecs = vecs[0].Len()
	}
	for i, v := range vecs {
		want := nRecs
		if cols[i].Repeated {
			want = nElems
		}
		if v.Kind != cols[i].Type.Kind || v.Len() != want {
			return nil, fmt.Errorf("store: column %q: %s vector of %d entries, want %s of %d",
				cols[i].Name(), v.Kind, v.Len(), cols[i].Type.Kind, want)
		}
	}
	st := &parquetStore{schema: schema, cols: cols, listPath: listPath, lengths: lengths, nRecs: nRecs, nFlat: nRecs,
		flatVecs: make([]*vec, len(cols)), repVecs: make([]*vec, len(cols))}
	if listPath != nil {
		st.nFlat = 0
		for _, l := range lengths {
			st.nFlat += max(int(l), 1)
		}
	}
	for ci, c := range cols {
		if c.Repeated {
			st.repVecs[ci] = withPlaceholders(vecs[ci], lengths)
		} else {
			st.flatVecs[ci] = vecs[ci]
		}
	}
	return st.as(layout), nil
}

// as seals the Parquet form as a store in layout: the form itself, sized,
// or the columnar layout derived from it.
func (s *parquetStore) as(layout Layout) Store {
	if layout == LayoutColumnar {
		return columnarOf(s)
	}
	s.size = s.computeSize()
	return s
}

// Builder stripes records, or a result's column batches, onto the Parquet
// form of a store and derives the store's layout from it when finished. It
// is the one way a record reaches a store: a build, an extension (Extend)
// and a spill stream re-read with a tail all append through it.
type Builder struct {
	layout  Layout
	st      *parquetStore
	striper Striper
	leaves  []*Vec // st's vector of every leaf column, in Columns order
}

// NewBuilder returns a builder of a store of the given layout and record
// schema.
func NewBuilder(layout Layout, schema *value.Type) (*Builder, error) {
	if layout != LayoutColumnar && layout != LayoutParquet {
		return nil, fmt.Errorf("store: unknown layout %v", layout)
	}
	st, err := FromColumns(schema, LayoutParquet, NewColumns(schema), nil)
	if err != nil {
		return nil, err
	}
	return appendTo(st.(*parquetStore), layout), nil
}

// appendTo returns a Builder that appends to p in place and finishes in
// layout; p must be nobody else's.
func appendTo(p *parquetStore, layout Layout) *Builder {
	leaves := slices.Clone(p.flatVecs)
	for ci, v := range p.repVecs {
		if v != nil {
			leaves[ci] = v
		}
	}
	return &Builder{layout: layout, st: p, leaves: leaves,
		striper: Striper{cols: p.cols, paths: resolveLeafPaths(p.schema, p.cols)}}
}

// Add appends one record of the builder's schema: its leaves striped once
// each — no parent duplication, which is why Parquet caches are cheaper to
// build than the columnar layout derived from them (Fig. 6) — and, for an
// empty list, a null placeholder in every repeated leaf.
func (b *Builder) Add(rec value.Value) error {
	if rec.Kind != value.Record {
		return fmt.Errorf("store: add: not a record: %s", rec.Kind)
	}
	st := b.st
	st.nRecs++
	st.lengths = b.striper.Append(rec, b.leaves, st.lengths)
	if st.listPath == nil {
		st.nFlat++
		return nil
	}
	l := int(st.lengths[len(st.lengths)-1])
	st.nFlat += max(l, 1)
	if l == 0 {
		for _, v := range st.repVecs {
			if v != nil {
				v.AppendVal(value.VNull)
			}
		}
	}
	return nil
}

// AppendBatch appends the rows sel of the column vectors cols, one vector
// per field of the schema. A flat schema's vectors are its leaf columns and
// are gathered whole; a nested schema's rows are boxed and striped as Add
// stripes records. Either way the store is indistinguishable from — and
// serializes to the same RCS bytes as — one built by Add-ing the same
// rows. The vectors are only read; sel is not retained.
func (b *Builder) AppendBatch(cols []*Vec, sel []int32) error {
	st := b.st
	if len(cols) != len(st.schema.Fields) {
		return fmt.Errorf("store: append batch: %d vectors for the %d fields of %s", len(cols), len(st.schema.Fields), st.schema)
	}
	if !b.striper.paths.flat {
		rec := make([]value.Value, len(cols)) // Add keeps no part of a record
		for _, r := range sel {
			for i, v := range cols {
				rec[i] = v.Get(int(r))
			}
			if err := b.Add(value.VRecord(rec...)); err != nil {
				return err
			}
		}
		return nil
	}
	for ci, src := range cols {
		st.flatVecs[ci].AppendSel(src, sel)
	}
	st.nRecs += len(sel)
	st.nFlat += len(sel)
	return nil
}

// Finish seals the builder and returns its store. The builder must not be
// used afterwards.
func (b *Builder) Finish() Store {
	return b.st.as(b.layout)
}

// flatRows lays out the flattened rows of records with the given list
// lengths as both layouts store them, one per element and one placeholder
// per empty list: the record of each row, and whether it is a placeholder.
func flatRows(lengths []int32) (recID []int32, skip []bool) {
	n := 0
	for _, l := range lengths {
		n += max(int(l), 1)
	}
	recID, skip = make([]int32, 0, n), make([]bool, 0, n)
	for ri, l := range lengths {
		for k := max(int(l), 1); k > 0; k-- {
			recID = append(recID, int32(ri))
			skip = append(skip, l == 0)
		}
	}
	return recID, skip
}

// recordRows lays out the rows of n records without a repeated field, one
// per record, none of them a placeholder.
func recordRows(n int) (recID []int32, skip []bool) {
	recID, skip = make([]int32, n), make([]bool, n)
	for i := range recID {
		recID[i] = int32(i)
	}
	return recID, skip
}

// withPlaceholders returns a repeated leaf's element entries with a null
// entry where each empty list stands: src itself when no list is empty.
func withPlaceholders(src *Vec, lengths []int32) *Vec {
	if !slices.Contains(lengths, 0) {
		return src
	}
	out := &Vec{Kind: src.Kind}
	e := 0
	for _, l := range lengths {
		if l == 0 {
			out.AppendVal(value.VNull)
			continue
		}
		out.AppendRange(src, e, e+int(l))
		e += int(l)
	}
	return out
}

// ParentIndex is the expand kernel of an unnest over leaf vectors: it
// appends to dst the record index, counted from base, of every flattened
// row of records with the given list lengths — record i once per element,
// an empty list not at all. A record leaf's value in flattened row r is its
// entry at dst[r]; a repeated leaf's entries are already one per row.
func ParentIndex(dst, lengths []int32, base int32) []int32 {
	n := len(dst)
	for _, l := range lengths {
		n += int(l)
	}
	dst = slices.Grow(dst, n-len(dst))
	for i, l := range lengths {
		for p := base + int32(i); l > 0; l-- {
			dst = append(dst, p)
		}
	}
	return dst
}

// Striper writes decoded records into leaf vectors along the schema's
// resolved leaf paths: the one per-record striper, the kernel of every
// Builder, and of the tests' in-memory record source (the miss
// differentials' oracle).
type Striper struct {
	cols  []value.LeafColumn
	paths leafPaths
}

// NewStriper returns the Striper of schema.
func NewStriper(schema *value.Type) (*Striper, error) {
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return nil, err
	}
	return &Striper{cols: cols, paths: resolveLeafPaths(schema, cols)}, nil
}

// Append stripes rec into the non-nil vectors of vecs (one per leaf column)
// and, for a schema with a repeated field, appends its list length to
// lengths.
func (s *Striper) Append(rec value.Value, vecs []*Vec, lengths []int32) []int32 {
	elems, hasList := s.paths.elems(rec)
	if hasList {
		lengths = append(lengths, int32(len(elems)))
	}
	for ci, v := range vecs {
		switch idx := s.paths.idx[ci]; {
		case v == nil:
		case !s.cols[ci].Repeated:
			v.AppendVal(value.GetAt(rec, idx))
		default:
			for _, e := range elems {
				v.AppendVal(value.GetAt(e, idx))
			}
		}
	}
	return lengths
}
