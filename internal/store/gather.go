package store

import (
	"slices"

	"recache/internal/value"
)

// This file holds the batch gather/permutation helpers the vectorized join
// uses: a join's build table stores row-ids into retained column vectors
// instead of copied rows, and the probe side materializes matched output
// batches by gathering those row-ids back out of the columns — typed moves
// end to end, no boxed value.Value until the pipeline boundary.

// NewVec returns an empty vector of the given kind; the vectorized join
// gathers copies of non-addressable build batches into fresh vectors
// through AppendSel.
func NewVec(k value.Kind) *Vec { return &Vec{Kind: k} }

// Gather returns a new vector holding src's entries at ids, in order (the
// row-id addressing of the vectorized join's output batches).
func Gather(src *Vec, ids []int32) *Vec {
	out := &Vec{Kind: src.Kind}
	out.AppendSel(src, ids)
	return out
}

// gatherAppend appends src's entries at sel to dst.
func gatherAppend[T any](dst, src []T, sel []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	for k, r := range sel {
		dst[n+k] = src[r]
	}
	return dst
}

// AppendSel appends src's entries at sel, in order: one kind dispatch and
// one typed gather per call. When the null words covering sel's range are
// all zero the bitmap grows by whole words; otherwise null entries are
// marked afterwards and their typed slots zeroed, exactly as AppendVal
// stores a null.
func (v *Vec) AppendSel(src *Vec, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if src.Kind != v.Kind {
		// Kind drift between the batch and this column: convert value by
		// value, as AppendVal would.
		for _, r := range sel {
			v.AppendVal(src.Get(int(r)))
		}
		return
	}
	n := v.Len()
	switch v.Kind {
	case value.Int:
		v.Ints = gatherAppend(v.Ints, src.Ints, sel)
	case value.Float:
		v.Floats = gatherAppend(v.Floats, src.Floats, sel)
	case value.String:
		v.Strs = gatherAppend(v.Strs, src.Strs, sel)
	case value.Bool:
		v.Bools = gatherAppend(v.Bools, src.Bools, sel)
	case value.Record, value.List:
		v.Boxed = gatherAppend(v.Boxed, src.Boxed, sel)
	}
	v.Nulls.appendValid(len(sel))
	if !src.Nulls.anyIn(int(slices.Min(sel)), int(slices.Max(sel))) {
		return
	}
	for k, r := range sel {
		if !src.Nulls.Get(int(r)) {
			continue
		}
		i := n + k
		v.Nulls.words[i>>6] |= 1 << (uint(i) & 63)
		switch v.Kind {
		case value.Int:
			v.Ints[i] = 0
		case value.Float:
			v.Floats[i] = 0
		case value.String:
			v.Strs[i] = ""
		case value.Bool:
			v.Bools[i] = false
		case value.Record, value.List:
			v.Boxed[i] = value.VNull
		}
	}
}
