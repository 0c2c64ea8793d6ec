package store

import (
	"fmt"
	"slices"
	"time"

	"recache/internal/value"
)

// Layout derivations. The two layouts are close relatives: repeated columns
// carry identical entry sequences (one entry per list element, plus a null
// placeholder for empty lists), so each layout derives from the other by
// typed vector work, with no record reassembled or re-shredded:
//
//   - Parquet → columnar (columnarOf): keep the repeated vectors; gather
//     each per-record vector at the record of every flattened row, the
//     expansion the Parquet layout's flattened cursor performs.
//   - Columnar → Parquet (parquetOf): keep the repeated vectors; gather
//     each duplicated vector at the first row of every record; rebuild the
//     list lengths from the record ids.
//
// A vector the derivation does not gather — a repeated one, or any whose
// records are one row each — is shared with the source. This keeps the
// transformation cost T in the same regime as a scan, which is what the
// paper's cost model (eq. 3) assumes.

// columnarOf derives the columnar layout from the Parquet form.
func columnarOf(p *parquetStore) *columnarStore {
	c := &columnarStore{schema: p.schema, cols: p.cols, nRecs: p.nRecs, vecs: make([]*vec, len(p.cols))}
	if p.listPath == nil {
		c.recID, c.skip = recordRows(p.nRecs)
	} else {
		c.recID, c.skip = flatRows(p.lengths)
	}
	for ci, col := range p.cols {
		switch {
		case col.Repeated:
			c.vecs[ci] = p.repVecs[ci]
		case p.nFlat == p.nRecs: // every record is one row
			c.vecs[ci] = p.flatVecs[ci]
		default:
			c.vecs[ci] = Gather(p.flatVecs[ci], c.recID)
		}
	}
	c.size = c.computeSize()
	return c
}

// parquetOf derives the Parquet form back from the columnar layout.
func parquetOf(c *columnarStore) *parquetStore {
	p := &parquetStore{schema: c.schema, cols: c.cols, listPath: value.RepeatedFieldCached(c.schema),
		nRecs: c.nRecs, nFlat: len(c.recID), flatVecs: make([]*vec, len(c.cols)), repVecs: make([]*vec, len(c.cols))}
	var firstRow []int32
	if p.listPath != nil {
		// First physical row and cardinality of every record.
		firstRow, p.lengths = make([]int32, 0, c.nRecs), make([]int32, 0, c.nRecs)
		recID := c.recID
		for r := 0; r < len(recID); {
			end := r + 1
			for end < len(recID) && recID[end] == recID[r] {
				end++
			}
			firstRow = append(firstRow, int32(r))
			if c.skip[r] {
				p.lengths = append(p.lengths, 0)
			} else {
				p.lengths = append(p.lengths, int32(end-r))
			}
			r = end
		}
	}
	for ci, col := range c.cols {
		switch {
		case col.Repeated:
			p.repVecs[ci] = c.vecs[ci]
		case p.nFlat == p.nRecs: // every row is its record's first
			p.flatVecs[ci] = c.vecs[ci]
		default:
			p.flatVecs[ci] = Gather(c.vecs[ci], firstRow)
		}
	}
	p.size = p.computeSize()
	return p
}

// Convert returns src in another layout with the wall-clock transformation
// time (the T term of the paper's cost model, eq. 3): the derivation, with
// a copy of every vector it would share with src, so the two stores share
// no memory and each vector is copied once. A store already in the
// requested layout is returned as is.
func Convert(src Store, to Layout) (Store, time.Duration, error) {
	if src.Layout() == to {
		return src, 0, nil
	}
	start := time.Now()
	switch s := src.(type) {
	case *parquetStore:
		if to == LayoutColumnar {
			c := columnarOf(s)
			unshare(c.vecs, s.flatVecs, 0)
			unshare(c.vecs, s.repVecs, 0)
			return c, time.Since(start), nil
		}
	case *columnarStore:
		if to == LayoutParquet {
			p := parquetOf(s)
			unshare(p.flatVecs, s.vecs, 0)
			unshare(p.repVecs, s.vecs, 0)
			return p, time.Since(start), nil
		}
	}
	return nil, 0, fmt.Errorf("store: convert: no conversion from %s to %v", src.Layout(), to)
}

// unshare replaces every vector of vecs that is also src's vector of the
// same leaf column by a copy with room for extra more entries.
func unshare(vecs, src []*vec, extra int) {
	for ci, v := range vecs {
		if v != nil && v == src[ci] {
			vecs[ci] = v.cloneCap(extra)
		}
	}
}

// cloneCap copies the vector with room for extra more entries, so the
// appends that follow never reallocate. The copy shares nothing with v,
// not even the null bitmap's trailing word.
func (v *Vec) cloneCap(extra int) *Vec {
	nv := &Vec{Kind: v.Kind, Nulls: v.Nulls.Clone()}
	switch v.Kind {
	case value.Int:
		nv.Ints = grown(v.Ints, extra)
	case value.Float:
		nv.Floats = grown(v.Floats, extra)
	case value.String:
		nv.Strs = grown(v.Strs, extra)
	case value.Bool:
		nv.Bools = grown(v.Bools, extra)
	}
	return nv
}

// grown copies s into new memory with room for exactly extra more
// elements. Without room it is a plain clone, which append makes without
// zeroing the memory first when T holds no pointers; growing by append
// would round the room up by a quarter of s, so room comes from make.
func grown[T any](s []T, extra int) []T {
	if extra == 0 {
		return slices.Clone(s)
	}
	return append(make([]T, 0, len(s)+extra), s...)
}
