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
// accumulates copies of non-addressable build batches into fresh vectors
// through AppendFrom.
func NewVec(k value.Kind) *Vec { return &Vec{Kind: k} }

// AppendFrom appends src's i-th entry to v without materializing a boxed
// value. Both vectors must share a kind.
func (v *Vec) AppendFrom(src *Vec, i int) {
	if src.Nulls.Get(i) {
		v.Nulls.Append(true)
		switch v.Kind {
		case value.Int:
			v.Ints = append(v.Ints, 0)
		case value.Float:
			v.Floats = append(v.Floats, 0)
		case value.String:
			v.Strs = append(v.Strs, "")
		case value.Bool:
			v.Bools = append(v.Bools, false)
		}
		return
	}
	v.Nulls.Append(false)
	switch v.Kind {
	case value.Int:
		v.Ints = append(v.Ints, src.Ints[i])
	case value.Float:
		v.Floats = append(v.Floats, src.Floats[i])
	case value.String:
		v.Strs = append(v.Strs, src.Strs[i])
	case value.Bool:
		v.Bools = append(v.Bools, src.Bools[i])
	}
}

// Gather returns a new vector holding src's entries at ids, in order (the
// row-id addressing of the vectorized join's output batches).
func Gather(src *Vec, ids []int32) *Vec {
	out := &Vec{Kind: src.Kind}
	out.appendSel(src, ids)
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

// appendSel appends src's entries at sel, in order: one kind dispatch and
// one typed gather per call. When the null words covering sel's range are
// all zero the bitmap grows by whole words; otherwise null entries are
// marked afterwards and their typed slots zeroed, exactly as AppendVal
// stores a null.
func (v *Vec) appendSel(src *Vec, sel []int32) {
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
		}
	}
}
