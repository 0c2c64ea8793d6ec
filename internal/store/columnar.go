package store

import "recache/internal/value"

// columnarStore is the relational column-oriented layout over the
// *flattened* view of nested records (§4 of the paper): each leaf becomes a
// typed vector of length R (the flattened row count), with parent values
// duplicated once per list element. Records whose repeated field is empty
// keep one placeholder row (nulls in the repeated columns) so that
// record-granularity scans and layout conversions lose no data; flattened
// scans skip placeholders. It is always derived from the Parquet form
// (columnarOf), which it shares its repeated leaves with.
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
