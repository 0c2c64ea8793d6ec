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
//   - Parquet → columnar: copy repeated vectors verbatim; expand each
//     per-record vector by the record's flattened row count.
//   - Columnar → Parquet: copy repeated vectors verbatim; gather each
//     duplicated vector at the first row of every record; rebuild the
//     repetition streams and list lengths from the record ids.
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

// expandVec repeats src[i] counts[i] times.
func expandVec(src *vec, counts []int32) *vec {
	var total int
	for _, c := range counts {
		total += int(c)
	}
	out := &vec{Kind: src.Kind}
	switch src.Kind {
	case value.Int:
		out.Ints = make([]int64, 0, total)
		for i, c := range counts {
			for k := int32(0); k < c; k++ {
				out.Nulls.Append(src.Nulls.Get(i))
				out.Ints = append(out.Ints, src.Ints[i])
			}
		}
	case value.Float:
		out.Floats = make([]float64, 0, total)
		for i, c := range counts {
			for k := int32(0); k < c; k++ {
				out.Nulls.Append(src.Nulls.Get(i))
				out.Floats = append(out.Floats, src.Floats[i])
			}
		}
	case value.String:
		out.Strs = make([]string, 0, total)
		for i, c := range counts {
			for k := int32(0); k < c; k++ {
				out.Nulls.Append(src.Nulls.Get(i))
				out.Strs = append(out.Strs, src.Strs[i])
			}
		}
	default: // value.Bool
		out.Bools = make([]bool, 0, total)
		for i, c := range counts {
			for k := int32(0); k < c; k++ {
				out.Nulls.Append(src.Nulls.Get(i))
				out.Bools = append(out.Bools, src.Bools[i])
			}
		}
	}
	return out
}

// convertParquetToColumnar performs the direct vector-level conversion.
func convertParquetToColumnar(p *parquetStore) *columnarStore {
	out := &columnarStore{schema: p.schema, cols: p.cols, nRecs: p.nRecs}
	counts := make([]int32, p.nRecs)
	for ri := 0; ri < p.nRecs; ri++ {
		c := int32(p.card(ri))
		if c == 0 {
			c = 1 // placeholder row
		}
		counts[ri] = c
	}
	out.vecs = make([]*vec, len(p.cols))
	for ci, c := range p.cols {
		if c.Repeated {
			out.vecs[ci] = copyVec(p.repVecs[ci])
		} else {
			out.vecs[ci] = expandVec(p.flatVecs[ci], counts)
		}
	}
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	out.recID = make([]int32, 0, total)
	out.skip = make([]bool, 0, total)
	for ri := 0; ri < p.nRecs; ri++ {
		empty := p.card(ri) == 0
		for k := int32(0); k < counts[ri]; k++ {
			out.recID = append(out.recID, int32(ri))
			out.skip = append(out.skip, empty)
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
	hasList := out.listPath != nil
	if hasList {
		out.lengths = lengths
	}
	out.flatVecs = make([]*vec, len(c.cols))
	out.repVecs = make([]*vec, len(c.cols))
	out.reps = make([][]uint8, len(c.cols))
	reps := repStream(lengths)
	for ci, col := range c.cols {
		if col.Repeated {
			out.repVecs[ci] = copyVec(c.vecs[ci])
			out.reps[ci] = append([]uint8(nil), reps...)
		} else {
			out.flatVecs[ci] = Gather(c.vecs[ci], firstRow)
		}
	}
	out.size = out.computeSize()
	return out
}

// repStream is the repetition-level stream of records with the given list
// lengths: 0 at each record's first level entry, 1 after it, and one entry
// (0, the placeholder) for an empty list.
func repStream(lengths []int32) []uint8 {
	var n int
	for _, l := range lengths {
		n += max(int(l), 1)
	}
	reps := make([]uint8, n)
	i := 0
	for _, l := range lengths {
		for k := 1; k < int(l); k++ {
			reps[i+k] = 1
		}
		i += max(int(l), 1)
	}
	return reps
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
