package store

import (
	"fmt"
	"slices"

	"recache/internal/value"
)

// Concat builds a store holding src's records followed by tail's, in src's
// layout, without mutating either (stores are immutable; concurrent scans
// of src stay valid, and so does a view derived from src). It copies each
// vector of src's Parquet form once, with exactly the room tail needs,
// appends tail's vectors behind and derives src's layout again — so
// extending a cached entry over an appended file tail, flat or nested,
// costs a memcpy of the old payload and typed appends for the tail. The
// copy of a store whose vectors are views of a stream (ReadParquetView)
// leaves the stream: it owns every vector it holds. A projected read concatenates with a tail of the same leaves, and the
// result holds those leaves; list lengths it left out stay out.
func Concat(src, tail Store) (Store, error) {
	s, t := formOf(src), formOf(tail)
	if s == nil || t == nil || !s.schema.Equal(t.schema) {
		return nil, fmt.Errorf("store: concat: %T of %s onto %T of %s", tail, tail.Schema(), src, src.Schema())
	}
	for ci, c := range s.cols {
		if (s.leaf(ci) == nil) != (t.leaf(ci) == nil) {
			return nil, fmt.Errorf("store: concat: leaf %q is held by one side only", c.Name())
		}
	}
	if t.noLengths && !s.noLengths {
		return nil, fmt.Errorf("store: concat: a tail without list lengths onto a store with them")
	}
	p := *s
	p.flatVecs, p.repVecs = cloneVecs(s.flatVecs, t.nRecs), cloneVecs(s.repVecs, t.nFlat)
	for ci := range s.cols {
		if dst, from := p.leaf(ci), t.leaf(ci); dst != nil {
			dst.AppendRange(from, 0, from.Len())
		}
	}
	if s.listPath != nil && !s.noLengths {
		p.lengths = slices.Concat(s.lengths, t.lengths)
	}
	p.nRecs += t.nRecs
	p.nFlat += t.nFlat
	return p.as(src.Layout()), nil
}

// TailColumns returns one empty vector per leaf column src holds, in
// value.LeafColumns order, and nil for a leaf a projected read left out of
// it: the vectors a decoder fills with the records Append adds to src.
func TailColumns(src Store) []*Vec {
	p := formOf(src)
	vecs := make([]*Vec, len(p.cols))
	for ci, c := range p.cols {
		if p.leaf(ci) != nil {
			vecs[ci] = newVec(c.Type)
		}
	}
	return vecs
}

// Append is Concat of src and the n records a decoder filled vecs
// (TailColumns of src) and lengths with (nil for a schema without a
// repeated field).
func Append(src Store, n int, vecs []*Vec, lengths []int32) (Store, error) {
	tail, err := fromColumns(src.Schema(), n, vecs, lengths)
	if err != nil {
		return nil, err
	}
	return Concat(src, tail.as(LayoutParquet))
}

// Extend is Concat of src and a Builder's store of the tail records. ok is
// always true.
func Extend(src Store, tail []value.Value) (st Store, ok bool, err error) {
	b, err := NewBuilder(LayoutParquet, src.Schema())
	if err != nil {
		return nil, true, err
	}
	for _, rec := range tail {
		if err := b.Add(rec); err != nil {
			return nil, true, err
		}
	}
	st, err = Concat(src, b.Finish())
	return st, true, err
}
