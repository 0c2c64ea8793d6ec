package store

import (
	"fmt"
	"time"

	"recache/internal/value"
)

// rowStore holds flat records as contiguous rows — the relational
// row-oriented layout. Row layout is best when queries touch most columns
// of a record (H2O's observation, used by the row/column advisor).
type rowStore struct {
	schema *value.Type
	cols   []value.LeafColumn
	rows   [][]value.Value
	size   int64
}

type rowBuilder struct {
	st    *rowStore
	paths leafPaths
}

func newRowBuilder(schema *value.Type, cols []value.LeafColumn) *rowBuilder {
	return &rowBuilder{st: &rowStore{schema: schema, cols: cols}, paths: resolveLeafPaths(schema, cols)}
}

// Add implements Builder.
func (b *rowBuilder) Add(rec value.Value) error {
	if rec.Kind != value.Record {
		return fmt.Errorf("store: row add: not a record: %s", rec.Kind)
	}
	row := make([]value.Value, len(b.st.cols))
	for i := range row {
		row[i] = value.GetAt(rec, b.paths.idx[i])
		b.st.size += row[i].ShallowSize()
	}
	b.st.rows = append(b.st.rows, row)
	b.st.size += 24 // slice header
	return nil
}

// Finish implements Builder.
func (b *rowBuilder) Finish() Store { return b.st }

// SizeBytes implements Builder.
func (b *rowBuilder) SizeBytes() int64 { return b.st.size }

// Layout implements Store.
func (s *rowStore) Layout() Layout { return LayoutRow }

// Schema implements Store.
func (s *rowStore) Schema() *value.Type { return s.schema }

// Columns implements Store.
func (s *rowStore) Columns() []value.LeafColumn { return s.cols }

// NumRecords implements Store.
func (s *rowStore) NumRecords() int { return len(s.rows) }

// NumFlatRows implements Store.
func (s *rowStore) NumFlatRows() int { return len(s.rows) }

// SizeBytes implements Store.
func (s *rowStore) SizeBytes() int64 { return s.size }

// ScanFlat implements Store. For a flat schema the flattened view is the
// record view.
func (s *rowStore) ScanFlat(cols []int, emit EmitFunc) (ScanStats, error) {
	return s.scan(cols, emit)
}

// ScanRecords implements Store.
func (s *rowStore) ScanRecords(cols []int, emit EmitFunc) (ScanStats, error) {
	return s.scan(cols, emit)
}

func (s *rowStore) scan(cols []int, emit EmitFunc) (ScanStats, error) {
	start := time.Now()
	buf := make([]value.Value, len(cols))
	for _, row := range s.rows {
		// Row layout touches the full row even for narrow projections: the
		// whole record occupies one contiguous region, so the memory system
		// pulls it in regardless of how many fields the query needs.
		for i, c := range cols {
			buf[i] = row[c]
		}
		if err := emit(buf); err != nil {
			return ScanStats{}, err
		}
	}
	return ScanStats{
		DataNanos:   time.Since(start).Nanoseconds(),
		RowsScanned: int64(len(s.rows)),
	}, nil
}

// ScanNested implements Store.
func (s *rowStore) ScanNested(emit func(rec value.Value) error) error {
	for _, row := range s.rows {
		if err := emit(value.VRecord(row...)); err != nil {
			return err
		}
	}
	return nil
}
