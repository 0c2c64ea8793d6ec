package store

import (
	"fmt"
	"slices"

	"recache/internal/value"
)

// Concat builds a store holding src's records followed by tail's, in src's
// layout, without mutating either (stores are immutable; concurrent scans
// of src stay valid, and so does a view derived from src). It copies every
// vector of both Parquet forms once, into vectors allocated with exactly
// the room they need, and derives src's layout again: a chain comes out
// compacted, and a store whose vectors are views of a stream
// (ReadParquetView) leaves the stream. A projected read concatenates with a
// tail of the same leaves, and the result holds those leaves; list lengths
// it left out stay out. A catch-up does not copy: it links (Append).
func Concat(src, tail Store) (Store, error) {
	s, t := chunksOf(src), chunksOf(tail)
	if s == nil || t == nil {
		return nil, fmt.Errorf("store: concat: %T of %s onto %T of %s", tail, tail.Schema(), src, src.Schema())
	}
	if err := compatible(s[0], t[0]); err != nil {
		return nil, err
	}
	return concatForms(slices.Concat(s, t)).as(src.Layout()), nil
}

// TailColumns returns one empty vector per leaf column src holds, in
// value.LeafColumns order, and nil for a leaf a projected read left out of
// it: the vectors a decoder fills with the records Append adds to src.
func TailColumns(src Store) []*Vec {
	p := chunksOf(src)[0]
	vecs := make([]*Vec, len(p.cols))
	for ci, c := range p.cols {
		if p.leaf(ci) != nil {
			vecs[ci] = newVec(c.Type)
		}
	}
	return vecs
}

// Append links the n records a decoder filled vecs (TailColumns of src)
// and lengths with (nil for a schema without a repeated field) behind the
// Parquet form of src, as a chunk of their own: the result is a chain
// whose chunks before the tail's are src's, shared and not copied (see
// chainStore for the merge rule that keeps it short). src is not changed,
// and a chunk that views a stream (ReadParquetView) stays a view of it
// until a merge copies it out, so the result is readable only as long as
// that stream is. A tail of no records leaves src as it is.
func Append(src Store, n int, vecs []*Vec, lengths []int32) (Store, error) {
	s := chunksOf(src)
	if s == nil {
		return nil, fmt.Errorf("store: append onto %T of %s", src, src.Schema())
	}
	if n == 0 {
		return src, nil
	}
	tail, err := fromColumns(src.Schema(), n, vecs, lengths)
	if err != nil {
		return nil, err
	}
	if s[0].noLengths {
		tail.lengths, tail.noLengths = nil, true
	}
	if err := compatible(s[0], tail); err != nil {
		return nil, err
	}
	tail.size = tail.computeSize()
	return link(s, tail), nil
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
