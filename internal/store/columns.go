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
// the rest from the lengths: Parquet's repetition streams and empty-list
// placeholders, the columnar layout's repeated parents.

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
// the store a Builder of that layout yields when Add-ed the same records,
// down to its RCS1 bytes and size. The vectors belong to the store
// afterwards.
func FromColumns(schema *value.Type, layout Layout, vecs []*Vec, lengths []int32) (Store, error) {
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return nil, err
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
	switch layout {
	case LayoutParquet:
		return parquetFromColumns(schema, cols, listPath, vecs, lengths, nRecs), nil
	case LayoutColumnar:
		return columnarFromColumns(schema, cols, listPath, vecs, lengths, nRecs), nil
	}
	return nil, fmt.Errorf("store: unknown layout %v", layout)
}

// parquetFromColumns keeps every vector: the record leaves are the per-record
// vectors as they are, and the element leaves the level-entry vectors once
// an empty list's null placeholder is in place.
func parquetFromColumns(schema *value.Type, cols []value.LeafColumn, listPath value.Path,
	vecs []*Vec, lengths []int32, nRecs int) *parquetStore {
	st := &parquetStore{schema: schema, cols: cols, listPath: listPath, nRecs: nRecs, nFlat: nRecs,
		flatVecs: make([]*vec, len(cols)), repVecs: make([]*vec, len(cols)), reps: make([][]uint8, len(cols))}
	var reps []uint8
	if listPath != nil {
		st.lengths = lengths
		reps = repStream(lengths)
		st.nFlat = len(reps)
	}
	for ci, c := range cols {
		if !c.Repeated {
			st.flatVecs[ci] = vecs[ci]
			continue
		}
		st.reps[ci] = reps
		st.repVecs[ci] = withPlaceholders(vecs[ci], lengths)
	}
	st.size = st.computeSize()
	return st
}

// columnarFromColumns repeats every record leaf once per flattened row of
// its record — one per element, one placeholder row for an empty list — and
// keeps the element leaves, placeholders added.
func columnarFromColumns(schema *value.Type, cols []value.LeafColumn, listPath value.Path,
	vecs []*Vec, lengths []int32, nRecs int) *columnarStore {
	st := &columnarStore{schema: schema, cols: cols, nRecs: nRecs, vecs: vecs}
	if listPath == nil {
		st.recID, st.skip = make([]int32, nRecs), make([]bool, nRecs)
		for i := range st.recID {
			st.recID[i] = int32(i)
		}
		st.size = st.computeSize()
		return st
	}
	for ri, l := range lengths {
		rows := max(int(l), 1)
		for k := 0; k < rows; k++ {
			st.recID = append(st.recID, int32(ri))
			st.skip = append(st.skip, l == 0)
		}
	}
	st.vecs = make([]*vec, len(cols))
	for ci, c := range cols {
		if c.Repeated {
			st.vecs[ci] = withPlaceholders(vecs[ci], lengths)
		} else {
			st.vecs[ci] = Gather(vecs[ci], st.recID)
		}
	}
	st.size = st.computeSize()
	return st
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

// Striper writes decoded records into leaf vectors along the leaf-path walk
// a Builder's Add takes. No production path uses it: it is the typed kernel
// of the tests' in-memory record source (the miss differentials' oracle)
// and the reference TestFromColumnsMatchesAdd holds FromColumns to.
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
