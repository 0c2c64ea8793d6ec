package store

import (
	"fmt"

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
// By design a per-record cursor still walks all R rows, selecting the first
// row of each record id: flattening discards record boundaries, which is
// exactly why the paper finds the columnar layout slow when queries touch
// only non-nested attributes (Parquet reads short per-record columns
// instead).
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
