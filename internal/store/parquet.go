package store

import "recache/internal/value"

// parquetStore is the Parquet-style nested columnar layout (§4): every
// leaf is striped into its own vector without duplication. Non-repeated
// leaves store exactly one entry per record — the "shorter columns" that
// make Parquet fast when queries touch only non-nested attributes.
// Repeated leaves store one entry per list element plus one null
// placeholder entry for records with an empty list, and the records' list
// lengths say which entries belong to which record: they stand in for
// Dremel's repetition levels, as the per-entry null bitmap stands in for
// its definition levels (the engine normalizes absent optional fields to
// nulls at ingestion; see DESIGN.md). This is the Parquet form every store
// is built, extended and re-read through: the leaf vectors FromColumns
// adopts with the empty-list placeholders in place, which a Builder stripes
// records onto and the columnar layout is derived from.
//
// A flattened scan expands the records when its cursor opens — each record
// leaf gathered once per flattened row of its record — and that expansion
// is Parquet's computational cost C_i, reported apart from data-access time
// D_i to the layout-selection cost model.
type parquetStore struct {
	schema   *value.Type
	cols     []value.LeafColumn
	flatVecs []*vec  // nil for repeated columns; 1 entry/record otherwise
	repVecs  []*vec  // nil for non-repeated; 1 entry/flattened row otherwise
	lengths  []int32 // list cardinality per record (nil for flat schemas)
	listPath value.Path
	nRecs    int
	nFlat    int // R: sum over records of max(card, 1); see NumFlatRows
	size     int64
}

func (s *parquetStore) computeSize() int64 {
	var sz int64
	for ci := range s.cols {
		if v := s.flatVecs[ci]; v != nil {
			sz += v.SizeBytes()
		}
		if v := s.repVecs[ci]; v != nil {
			sz += v.SizeBytes()
		}
	}
	sz += int64(len(s.lengths)) * 4
	return sz
}

// Layout implements Store.
func (s *parquetStore) Layout() Layout { return LayoutParquet }

// Schema implements Store.
func (s *parquetStore) Schema() *value.Type { return s.schema }

// Columns implements Store.
func (s *parquetStore) Columns() []value.LeafColumn { return s.cols }

// NumRecords implements Store.
func (s *parquetStore) NumRecords() int { return s.nRecs }

// NumFlatRows implements Store.
func (s *parquetStore) NumFlatRows() int { return s.nFlat }

// SizeBytes implements Store.
func (s *parquetStore) SizeBytes() int64 { return s.size }

func (s *parquetStore) card(ri int) int {
	if s.lengths == nil {
		return 1
	}
	return int(s.lengths[ri])
}

// ScanNested implements Store.
func (s *parquetStore) ScanNested(emit func(rec value.Value) error) error {
	asm := newAssembler(s.schema, s.cols, s.flatVecs, s.repVecs)
	// Entry cursor shared across repeated columns (they are aligned: one
	// list per schema).
	cursor := 0
	for ri := 0; ri < s.nRecs; ri++ {
		card := s.card(ri)
		rec := asm.record(ri, cursor, card)
		if card == 0 {
			cursor++
		} else {
			cursor += card
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}
