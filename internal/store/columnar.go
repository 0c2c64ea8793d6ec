package store

import (
	"fmt"
	"time"

	"recache/internal/value"
)

// columnarStore is the relational column-oriented layout over the
// *flattened* view of nested records (§4 of the paper): each leaf becomes a
// typed vector of length R (the flattened row count), with parent values
// duplicated once per list element. Records whose repeated field is empty
// keep one placeholder row (nulls in the repeated columns) so that
// record-granularity scans and layout conversions lose no data; flattened
// scans skip placeholders.
//
// By design ScanRecords still iterates all R rows, deduplicating by record
// id: flattening discards record boundaries, which is exactly why the paper
// finds the columnar layout slow when queries touch only non-nested
// attributes (Parquet reads short per-record columns instead).
type columnarStore struct {
	schema *value.Type
	cols   []value.LeafColumn
	vecs   []*vec
	recID  []int32 // record index per physical row
	skip   []bool  // true for placeholder rows of empty-list records
	nRecs  int
	size   int64
}

type columnarBuilder struct {
	st    *columnarStore
	paths leafPaths
}

func newColumnarBuilder(schema *value.Type, cols []value.LeafColumn) *columnarBuilder {
	st := &columnarStore{schema: schema, cols: cols}
	st.vecs = make([]*vec, len(cols))
	for i, c := range cols {
		st.vecs[i] = newVec(c.Type)
	}
	return &columnarBuilder{st: st, paths: resolveLeafPaths(schema, cols)}
}

// Add implements Builder: one row per element of the repeated field, parent
// values duplicated into each, appended column by column. This write
// amplification is what makes columnar caches slower to build than Parquet
// (Fig. 6). A flat record is one row of its own fields.
func (b *columnarBuilder) Add(rec value.Value) error {
	if rec.Kind != value.Record {
		return fmt.Errorf("store: columnar add: not a record: %s", rec.Kind)
	}
	st := b.st
	ri := int32(st.nRecs)
	st.nRecs++
	if b.paths.flat {
		for ci, v := range st.vecs {
			if ci < len(rec.L) {
				v.AppendVal(rec.L[ci])
			} else {
				v.AppendVal(value.VNull) // a short record reads as nulls, as value.Get does
			}
		}
		st.recID = append(st.recID, ri)
		st.skip = append(st.skip, false)
		return nil
	}
	elems, hasList := b.paths.elems(rec)
	rows := len(elems)
	if !hasList || rows == 0 {
		// No list: the record is its one row. Empty list: a placeholder row
		// with the non-repeated values present and the repeated columns null.
		rows = 1
	}
	for ci, c := range st.cols {
		v, idx := st.vecs[ci], b.paths.idx[ci]
		switch {
		case !c.Repeated:
			val := value.GetAt(rec, idx)
			for r := 0; r < rows; r++ {
				v.AppendVal(val)
			}
		case len(elems) == 0:
			v.AppendVal(value.VNull)
		default:
			for _, e := range elems {
				v.AppendVal(value.GetAt(e, idx))
			}
		}
	}
	for r := 0; r < rows; r++ {
		st.recID = append(st.recID, ri)
		st.skip = append(st.skip, hasList && len(elems) == 0)
	}
	return nil
}

// Finish implements Builder.
func (b *columnarBuilder) Finish() Store {
	b.st.size = b.st.computeSize()
	return b.st
}

// SizeBytes implements Builder.
func (b *columnarBuilder) SizeBytes() int64 { return b.st.computeSize() }

func (s *columnarStore) computeSize() int64 {
	var sz int64
	for _, v := range s.vecs {
		sz += v.SizeBytes()
	}
	sz += int64(len(s.recID)) * 5 // recID + skip
	return sz
}

// Layout implements Store.
func (s *columnarStore) Layout() Layout { return LayoutColumnar }

// Schema implements Store.
func (s *columnarStore) Schema() *value.Type { return s.schema }

// Columns implements Store.
func (s *columnarStore) Columns() []value.LeafColumn { return s.cols }

// NumRecords implements Store.
func (s *columnarStore) NumRecords() int { return s.nRecs }

// NumFlatRows implements Store.
func (s *columnarStore) NumFlatRows() int { return len(s.recID) }

// SizeBytes implements Store.
func (s *columnarStore) SizeBytes() int64 { return s.size }

// ScanFlat implements Store: a vectorized columnar scan. Rows are
// processed in chunks; each selected vector is copied into the row-major
// output buffer by a typed inner loop (the kind dispatch happens once per
// column per chunk, not once per cell), which is precisely the tight,
// branch-light access pattern that makes column stores fast and that
// Parquet's row-driven FSM assembly cannot use.
func (s *columnarStore) ScanFlat(cols []int, emit EmitFunc) (ScanStats, error) {
	start := time.Now()
	n := len(s.recID)
	nc := len(cols)
	vecs := make([]*vec, nc)
	for i, c := range cols {
		vecs[i] = s.vecs[c]
	}
	const chunkRows = BatchRows
	rowIdx := make([]int32, 0, chunkRows)
	chunk := make([]value.Value, chunkRows*max(nc, 1))
	for base := 0; base < n; base += chunkRows {
		end := base + chunkRows
		if end > n {
			end = n
		}
		rowIdx = rowIdx[:0]
		for r := base; r < end; r++ {
			if !s.skip[r] {
				rowIdx = append(rowIdx, int32(r))
			}
		}
		m := len(rowIdx)
		if m == 0 {
			continue
		}
		for i, v := range vecs {
			FillColumn(chunk, i, nc, rowIdx, v)
		}
		for k := 0; k < m; k++ {
			if err := emit(chunk[k*nc : (k+1)*nc : (k+1)*nc]); err != nil {
				return ScanStats{}, err
			}
		}
	}
	// The flattened columnar layout has negligible computational cost: all
	// time is data access (§4.2).
	return ScanStats{
		DataNanos:   time.Since(start).Nanoseconds(),
		RowsScanned: int64(n),
	}, nil
}

// FillColumn writes vector values for the selected rows into column slot i
// of the row-major chunk, dispatching on the column kind and testing the
// null words once.
func FillColumn(chunk []value.Value, i, nc int, sel []int32, v *Vec) {
	nulls := v.Nulls.AnySel(sel)
	switch v.Kind {
	case value.Int:
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				chunk[k*nc+i] = value.VNull
			} else {
				chunk[k*nc+i] = value.Value{Kind: value.Int, I: v.Ints[r]}
			}
		}
	case value.Float:
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				chunk[k*nc+i] = value.VNull
			} else {
				chunk[k*nc+i] = value.Value{Kind: value.Float, F: v.Floats[r]}
			}
		}
	case value.String:
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				chunk[k*nc+i] = value.VNull
			} else {
				chunk[k*nc+i] = value.Value{Kind: value.String, S: v.Strs[r]}
			}
		}
	case value.Bool:
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				chunk[k*nc+i] = value.VNull
			} else {
				chunk[k*nc+i] = value.Value{Kind: value.Bool, B: v.Bools[r]}
			}
		}
	}
}

// ScanRecords implements Store: flattening lost the record boundaries, so
// the scan walks all R physical rows, loading the (duplicated) column
// values of every row, and deduplicates on the record id before emitting.
// Reading the duplication is the honest cost of this layout for per-record
// queries — the paper's observation that the columnar cache "has to process
// more data" while Parquet reads columns 4× shorter (§4, §6.1.1).
func (s *columnarStore) ScanRecords(cols []int, emit EmitFunc) (ScanStats, error) {
	for _, c := range cols {
		if s.cols[c].Repeated {
			return ScanStats{}, fmt.Errorf("store: ScanRecords cannot project repeated column %q", s.cols[c].Name())
		}
	}
	start := time.Now()
	n := len(s.recID)
	nc := len(cols)
	vecs := make([]*vec, nc)
	for i, c := range cols {
		vecs[i] = s.vecs[c]
	}
	const chunkRows = BatchRows
	rowIdx := make([]int32, chunkRows)
	chunk := make([]value.Value, chunkRows*max(nc, 1))
	prev := int32(-1)
	for base := 0; base < n; base += chunkRows {
		end := base + chunkRows
		if end > n {
			end = n
		}
		m := end - base
		for k := 0; k < m; k++ {
			rowIdx[k] = int32(base + k)
		}
		// Load every physical row's values (the duplicated data), then emit
		// only the first row of each record.
		for i, v := range vecs {
			FillColumn(chunk, i, nc, rowIdx[:m], v)
		}
		for k := 0; k < m; k++ {
			id := s.recID[base+k]
			if id == prev {
				continue
			}
			prev = id
			if err := emit(chunk[k*nc : (k+1)*nc : (k+1)*nc]); err != nil {
				return ScanStats{}, err
			}
		}
	}
	return ScanStats{
		DataNanos:   time.Since(start).Nanoseconds(),
		RowsScanned: int64(n),
	}, nil
}

// ScanNested implements Store: regroup physical rows by record id and
// rebuild the nested records.
func (s *columnarStore) ScanNested(emit func(rec value.Value) error) error {
	n := len(s.recID)
	asm := newAssembler(s.schema, s.cols, s.vecs, s.vecs)
	r := 0
	for r < n {
		id := s.recID[r]
		end := r
		for end < n && s.recID[end] == id {
			end++
		}
		card := end - r
		if s.skip[r] {
			card = 0
		}
		if err := emit(asm.record(r, r, card)); err != nil {
			return err
		}
		r = end
	}
	return nil
}
