package store

import (
	"fmt"
	"time"

	"recache/internal/value"
)

// Layout conversions. The two layouts are close relatives: repeated columns
// carry identical entry sequences (one entry per list element, plus a null
// placeholder for empty lists), so converting between them reduces to typed
// vector copies, with no record reassembled or re-shredded:
//
//   - Parquet → columnar: copy repeated vectors verbatim; gather each
//     per-record vector at the record of every flattened row, the
//     expansion the Parquet layout's flattened cursor performs.
//   - Columnar → Parquet: copy repeated vectors verbatim; gather each
//     duplicated vector at the first row of every record; rebuild the list
//     lengths from the record ids.
//
// This keeps the transformation cost T in the same regime as a scan, which
// is what the paper's cost model (eq. 3) assumes.

// copyVec deep-copies a vector (including the null bitmap's trailing word,
// so appends to the copy never alias the source).
func copyVec(src *vec) *vec {
	out := &vec{Kind: src.Kind, Nulls: src.Nulls.Clone()}
	out.Ints = append([]int64(nil), src.Ints...)
	out.Floats = append([]float64(nil), src.Floats...)
	out.Strs = append([]string(nil), src.Strs...)
	out.Bools = append([]bool(nil), src.Bools...)
	return out
}

// convertParquetToColumnar performs the direct vector-level conversion.
func convertParquetToColumnar(p *parquetStore) *columnarStore {
	out := &columnarStore{schema: p.schema, cols: p.cols, nRecs: p.nRecs, vecs: make([]*vec, len(p.cols))}
	if p.listPath == nil {
		out.recID, out.skip = recordRows(p.nRecs)
	} else {
		out.recID, out.skip = flatRows(p.lengths)
	}
	for ci, c := range p.cols {
		if c.Repeated {
			out.vecs[ci] = copyVec(p.repVecs[ci])
		} else {
			out.vecs[ci] = Gather(p.flatVecs[ci], out.recID)
		}
	}
	out.size = out.computeSize()
	return out
}

// convertColumnarToParquet performs the reverse conversion.
func convertColumnarToParquet(c *columnarStore) *parquetStore {
	out := &parquetStore{
		schema:   c.schema,
		cols:     c.cols,
		listPath: value.RepeatedField(c.schema),
		nRecs:    c.nRecs,
		nFlat:    len(c.recID),
	}
	// First physical row and cardinality of every record.
	firstRow := make([]int32, 0, c.nRecs)
	lengths := make([]int32, 0, c.nRecs)
	n := len(c.recID)
	for r := 0; r < n; {
		id := c.recID[r]
		end := r
		for end < n && c.recID[end] == id {
			end++
		}
		firstRow = append(firstRow, int32(r))
		if c.skip[r] {
			lengths = append(lengths, 0)
		} else {
			lengths = append(lengths, int32(end-r))
		}
		r = end
	}
	if out.listPath != nil {
		out.lengths = lengths
	}
	out.flatVecs = make([]*vec, len(c.cols))
	out.repVecs = make([]*vec, len(c.cols))
	for ci, col := range c.cols {
		if col.Repeated {
			out.repVecs[ci] = copyVec(c.vecs[ci])
		} else {
			out.flatVecs[ci] = Gather(c.vecs[ci], firstRow)
		}
	}
	out.size = out.computeSize()
	return out
}

// Convert returns src in another layout with the wall-clock transformation
// time (the T term of the paper's cost model, eq. 3). A store already in the
// requested layout is returned as is.
func Convert(src Store, to Layout) (Store, time.Duration, error) {
	if src.Layout() == to {
		return src, 0, nil
	}
	start := time.Now()
	switch s := src.(type) {
	case *parquetStore:
		if to == LayoutColumnar {
			return convertParquetToColumnar(s), time.Since(start), nil
		}
	case *columnarStore:
		if to == LayoutParquet {
			return convertColumnarToParquet(s), time.Since(start), nil
		}
	}
	return nil, 0, fmt.Errorf("store: convert: no conversion from %s to %v", src.Layout(), to)
}
