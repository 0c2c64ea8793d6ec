package store

import (
	"fmt"
	"slices"

	"recache/internal/value"
)

// Extend builds a store holding src's records followed by the tail
// records, in src's layout, without mutating src (stores are immutable;
// concurrent scans of src stay valid). It takes src's Parquet form, copies
// each vector that form shares with src once, with room for the tail,
// stripes the tail on through a Builder and derives src's layout again — so
// extending a cached entry over an appended file tail costs a memcpy of the
// old payload, per-record work only for the tail, flat or nested. ok is
// always true.
func Extend(src Store, tail []value.Value) (st Store, ok bool, err error) {
	var p *parquetStore
	switch s := src.(type) {
	case *parquetStore:
		q := *s
		q.flatVecs, q.repVecs = slices.Clone(s.flatVecs), slices.Clone(s.repVecs)
		if s.listPath != nil {
			q.lengths = append(make([]int32, 0, len(s.lengths)+len(tail)), s.lengths...)
		}
		p = &q
		unshare(p.flatVecs, s.flatVecs, len(tail))
		unshare(p.repVecs, s.repVecs, len(tail))
	case *columnarStore:
		p = parquetOf(s)
		unshare(p.flatVecs, s.vecs, len(tail))
		unshare(p.repVecs, s.vecs, len(tail))
	default:
		return nil, true, fmt.Errorf("store: extend: unknown store %T", src)
	}
	b := appendTo(p, src.Layout())
	for _, rec := range tail {
		if err := b.Add(rec); err != nil {
			return nil, true, err
		}
	}
	return b.Finish(), true, nil
}
