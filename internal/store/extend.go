package store

import (
	"fmt"

	"recache/internal/value"
)

// Extend builds a store holding src's records followed by the tail
// records, in src's layout, without mutating src (stores are immutable;
// concurrent scans of src stay valid, and so does a view derived from
// src). It copies each vector of src's Parquet form once, with room for the
// tail, stripes the tail on through a Builder and derives src's layout
// again — so extending a cached entry over an appended file tail costs a
// memcpy of the old payload, per-record work only for the tail, flat or
// nested. A copy of a store backed by an RCS buffer (ReadParquetOwned)
// copies its string bytes out of the buffer too, so it pins nothing it is
// not charged for. ok is always true.
func Extend(src Store, tail []value.Value) (st Store, ok bool, err error) {
	s := formOf(src)
	if s == nil {
		return nil, true, fmt.Errorf("store: extend: unknown store %T", src)
	}
	p := *s
	p.backing = nil // the copy owns its memory, string bytes included
	detach := s.backing != nil
	p.flatVecs, p.repVecs = cloneVecs(s.flatVecs, len(tail), detach), cloneVecs(s.repVecs, len(tail), detach)
	if s.listPath != nil {
		p.lengths = append(make([]int32, 0, len(s.lengths)+len(tail)), s.lengths...)
	}
	b := appendTo(&p, src.Layout())
	for _, rec := range tail {
		if err := b.Add(rec); err != nil {
			return nil, true, err
		}
	}
	return b.Finish(), true, nil
}
