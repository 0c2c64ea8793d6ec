package store

import (
	"fmt"

	"recache/internal/value"
)

// parquetStore is the Parquet-style nested columnar layout (§4): every
// leaf is striped into its own vector without duplication. Non-repeated
// leaves store exactly one entry per record — the "shorter columns" that
// make Parquet fast when queries touch only non-nested attributes.
// Repeated leaves store one entry per list element plus one null
// placeholder entry for records with an empty list, and the records' list
// lengths say which entries belong to which record: they stand in for
// Dremel's repetition levels, as the per-entry null bitmap stands in for
// its definition levels (the engine normalizes absent optional fields to
// nulls at ingestion; see DESIGN.md).
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

// ParquetBuilder builds a Parquet-layout store. Beside the Builder methods
// it takes whole column batches (AppendBatch) when the schema is flat, which
// is how a batch-native query result reaches the RCS encoder without being
// boxed into records first.
type ParquetBuilder struct {
	st    *parquetStore
	paths leafPaths
}

func newParquetBuilder(schema *value.Type, cols []value.LeafColumn) *ParquetBuilder {
	st := &parquetStore{schema: schema, cols: cols}
	st.flatVecs = make([]*vec, len(cols))
	st.repVecs = make([]*vec, len(cols))
	for i, c := range cols {
		if c.Repeated {
			st.repVecs[i] = newVec(c.Type)
		} else {
			st.flatVecs[i] = newVec(c.Type)
		}
	}
	st.listPath = value.RepeatedField(schema)
	return &ParquetBuilder{st: st, paths: resolveLeafPaths(schema, cols)}
}

// Add implements Builder: column striping. Each value is written exactly
// once — no parent duplication — which is why Parquet caches are cheaper to
// build (Fig. 6) and smaller in memory.
func (b *ParquetBuilder) Add(rec value.Value) error {
	if rec.Kind != value.Record {
		return fmt.Errorf("store: parquet add: not a record: %s", rec.Kind)
	}
	st := b.st
	st.nRecs++
	elems, hasList := b.paths.elems(rec)
	if hasList {
		st.lengths = append(st.lengths, int32(len(elems)))
	}
	if hasList && len(elems) > 0 {
		st.nFlat += len(elems)
	} else {
		st.nFlat++ // the record itself, or an empty list's placeholder row
	}
	for ci, c := range st.cols {
		idx := b.paths.idx[ci]
		switch {
		case !c.Repeated:
			st.flatVecs[ci].AppendVal(value.GetAt(rec, idx))
		case len(elems) == 0:
			st.repVecs[ci].AppendVal(value.VNull)
		default:
			for _, e := range elems {
				st.repVecs[ci].AppendVal(value.GetAt(e, idx))
			}
		}
	}
	return nil
}

// AppendBatch appends the rows sel of the column vectors cols, one vector
// per field of the schema. A flat schema's vectors are its leaf columns and
// are gathered whole; a nested schema's rows are boxed and striped as Add
// stripes records. Either way the store is indistinguishable from — and
// serializes to the same RCS bytes as — one built by Add-ing the same
// rows. The vectors are only read; sel is not retained.
func (b *ParquetBuilder) AppendBatch(cols []*Vec, sel []int32) error {
	st := b.st
	if len(cols) != len(st.schema.Fields) {
		return fmt.Errorf("store: parquet append batch: %d vectors for the %d fields of %s", len(cols), len(st.schema.Fields), st.schema)
	}
	if !b.paths.flat {
		for _, r := range sel {
			rec := make([]value.Value, len(cols))
			for i, v := range cols {
				rec[i] = v.Get(int(r))
			}
			if err := b.Add(value.VRecord(rec...)); err != nil {
				return err
			}
		}
		return nil
	}
	for ci, src := range cols {
		st.flatVecs[ci].AppendSel(src, sel)
	}
	st.nRecs += len(sel)
	st.nFlat += len(sel)
	return nil
}

// Finish implements Builder.
func (b *ParquetBuilder) Finish() Store {
	b.st.size = b.st.computeSize()
	return b.st
}

// SizeBytes implements Builder.
func (b *ParquetBuilder) SizeBytes() int64 { return b.st.computeSize() }

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
