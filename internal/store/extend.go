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
// costs a memcpy of the old payload and typed appends for the tail. A copy
// of a store backed by an RCS buffer (ReadParquetOwned) copies its string
// bytes out of the buffer too, so it pins nothing it is not charged for.
func Concat(src, tail Store) (Store, error) {
	s, t := formOf(src), formOf(tail)
	if s == nil || t == nil || !s.schema.Equal(t.schema) {
		return nil, fmt.Errorf("store: concat: %T of %s onto %T of %s", tail, tail.Schema(), src, src.Schema())
	}
	p := *s
	p.backing = nil // the copy owns its memory, string bytes included
	detach := s.backing != nil
	p.flatVecs, p.repVecs = cloneVecs(s.flatVecs, t.nRecs, detach), cloneVecs(s.repVecs, t.nFlat, detach)
	for ci, c := range s.cols {
		dst, from := p.flatVecs[ci], t.flatVecs[ci]
		if c.Repeated {
			dst, from = p.repVecs[ci], t.repVecs[ci]
		}
		dst.AppendRange(from, 0, from.Len())
	}
	if s.listPath != nil {
		p.lengths = slices.Concat(s.lengths, t.lengths)
	}
	p.nRecs += t.nRecs
	p.nFlat += t.nFlat
	return p.as(src.Layout()), nil
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
