package store

import "recache/internal/value"

// The flattened view. The columnar layout is derived from the Parquet form
// by typed vector work, with no record reassembled or re-shredded: it keeps
// the repeated vectors, whose entries are one per flattened row already,
// and gathers each per-record vector at the record of every flattened row —
// the expansion the Parquet form's flattened cursor performs per scan. A
// vector the derivation does not gather — a repeated one, or any whose
// records are one row each — is shared with the form. This keeps the
// derivation cost T in the same regime as a scan, which is what the paper's
// cost model (eq. 3) assumes.

// columnarOf derives the columnar layout from the Parquet form, which it
// keeps as its own form.
func columnarOf(p *parquetStore) *columnarStore {
	c := &columnarStore{schema: p.schema, cols: p.cols, nRecs: p.nRecs, form: p, vecs: make([]*vec, len(p.cols))}
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

// Flatten derives the flattened view of st's Parquet form: the columnar
// layout, which shares the form's vectors wherever it can. A chain is
// compacted first, and the view keeps the compaction, whose every byte it
// owns. own is what the view holds beyond the vectors of st — its gathered
// record leaves, its row index and its placeholder marks, and a
// compaction — so a view kept beside its form costs own bytes more.
// Flatten never changes st.
func Flatten(st Store) (view Store, own int64) {
	p := compact(st)
	c := columnarOf(p)
	own = int64(len(c.recID)) * 5 // recID + skip
	if _, chained := st.(*chainStore); chained {
		own += p.size
	}
	for ci, v := range c.vecs {
		if v != p.flatVecs[ci] && v != p.repVecs[ci] {
			own += v.SizeBytes()
		}
	}
	return c, own
}

// FlattenedLayout names the layout a flattening scan of st reads: columnar
// when its cursor needs no expansion — a columnar store, or data without a
// repeated field — and Parquet when it expands the records.
func FlattenedLayout(st Store) Layout {
	if st.Layout() == LayoutParquet && value.RepeatedFieldCached(st.Schema()) != nil {
		return LayoutParquet
	}
	return LayoutColumnar
}

// cloneVecs copies every non-nil vector of vecs with room for extra more
// entries.
func cloneVecs(vecs []*vec, extra int) []*vec {
	out := make([]*vec, len(vecs))
	for ci, v := range vecs {
		if v != nil {
			out[ci] = v.cloneCap(extra)
		}
	}
	return out
}

// cloneCap copies the vector with room for extra more entries, so the
// appends that follow never reallocate. The copy shares nothing with v,
// not even the null bitmap's trailing word, except the bytes of its
// strings, which no store rewrites.
func (v *Vec) cloneCap(extra int) *Vec {
	nv := &Vec{Kind: v.Kind, Nulls: v.Nulls.Clone()}
	switch v.Kind {
	case value.Int:
		nv.Ints = grown(v.Ints, extra)
	case value.Float:
		nv.Floats = grown(v.Floats, extra)
	case value.String:
		// String headers hold pointers: their memory is made, and cleared.
		nv.Strs = append(make([]string, 0, len(v.Strs)+extra), v.Strs...)
	case value.Bool:
		nv.Bools = grown(v.Bools, extra)
	}
	return nv
}
