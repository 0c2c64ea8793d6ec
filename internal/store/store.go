// Package store implements the two in-memory cache layouts ReCache
// chooses between (§4 of the paper):
//
//   - LayoutColumnar: relational column-oriented storage of the *flattened*
//     view of (possibly nested) records, duplicating parent values per list
//     element exactly as §4 describes,
//   - LayoutParquet: Parquet-style nested columnar storage: one entry per
//     record in a non-repeated leaf, one per list element (plus a null
//     placeholder per empty list) in a repeated leaf, and every record's
//     list length.
//
// There is no row-oriented layout: §4.3's H2O-style comparison can only
// prefer it for columns averaging under 4.8 bytes (DESIGN.md "Layout
// ablations"), so a flat schema is simply held columnar.
//
// Both layouts are read through one batch cursor with two granularities:
// the flattened rows (the view produced by unnesting the repeated field),
// or one row per top-level record over non-repeated columns only. The two
// granularities have very different costs per layout — Parquet reads short
// per-record columns at record granularity but expands its records into
// flattened rows when a flattened cursor opens; the flattened columnar
// layout stores that view and walks every flattened row either way — and
// that asymmetry is the heart of the paper's layout-selection problem.
package store

import (
	"fmt"

	"recache/internal/value"
)

// Layout identifies a cache storage layout.
type Layout uint8

// The supported layouts.
const (
	LayoutColumnar Layout = iota
	LayoutParquet
)

// String names the layout as the paper's figures do.
func (l Layout) String() string {
	switch l {
	case LayoutColumnar:
		return "columnar"
	case LayoutParquet:
		return "parquet"
	}
	return fmt.Sprintf("layout(%d)", uint8(l))
}

// ScanStats reports the cost split of one scan: DataNanos is time spent
// loading values from the store (D_i in the paper's cost model), and
// ComputeNanos the time spent expanding records into flattened rows (C_i).
// RowsScanned is r_i, and Batches the column batches the scan pulled.
type ScanStats struct {
	DataNanos    int64
	ComputeNanos int64
	RowsScanned  int64
	Batches      int64
}

// Store is an immutable in-memory cache of records.
type Store interface {
	// Layout identifies the physical layout.
	Layout() Layout
	// Schema returns the nested schema of the stored records.
	Schema() *value.Type
	// Columns enumerates the leaf columns of Schema in document order;
	// scan projections are indexes into this slice.
	Columns() []value.LeafColumn
	// NumRecords is the number of top-level records stored.
	NumRecords() int
	// NumFlatRows is R: the number of rows in the flattened view
	// (records with an empty repeated field count one placeholder row).
	NumFlatRows() int
	// SizeBytes estimates the in-memory footprint (B in the benefit metric).
	SizeBytes() int64
	// BatchCursor opens a scan of the columns cols (indexes into
	// Columns()): the flattened rows when flat is set — records whose
	// repeated field is empty yield none (inner-unnest semantics) — or one
	// row per record otherwise, when every column must be non-repeated.
	BatchCursor(flat bool, cols []int) (*BatchCursor, error)
	// ScanNested reconstructs and emits the original nested records: a
	// client's record-typed result rows, and the tests' round trips.
	ScanNested(emit func(rec value.Value) error) error
}

// ColumnIndexes resolves dotted column names against the store's columns.
func ColumnIndexes(s Store, names []string) ([]int, error) {
	cols := s.Columns()
	out := make([]int, len(names))
	for i, n := range names {
		found := -1
		for j := range cols {
			if cols[j].Name() == n {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("store: no column %q in schema %s", n, s.Schema())
		}
		out[i] = found
	}
	return out, nil
}
