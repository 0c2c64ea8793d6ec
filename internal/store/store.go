// Package store implements the two in-memory cache layouts ReCache
// chooses between (§4 of the paper):
//
//   - LayoutColumnar: relational column-oriented storage of the *flattened*
//     view of (possibly nested) records, duplicating parent values per list
//     element exactly as §4 describes,
//   - LayoutParquet: Dremel/Parquet-style nested columnar storage with
//     repetition levels and per-element presence, reconstructed by an
//     FSM-style assembler at scan time.
//
// There is no row-oriented layout: §4.3's H2O-style comparison can only
// prefer it for columns averaging under 4.8 bytes (DESIGN.md "Layout
// ablations"), so a flat schema is simply held columnar.
//
// Both layouts expose the same Store interface with two scan granularities:
// ScanFlat emits the flattened rows (the view produced by unnesting the
// repeated field), while ScanRecords emits one row per top-level record and
// may only project non-repeated columns. The two granularities have very
// different costs per layout — Parquet reads short per-record columns in
// ScanRecords but pays FSM assembly in ScanFlat; the flattened columnar
// layout always iterates every flattened row — and that asymmetry is the
// heart of the paper's layout-selection problem.
package store

import (
	"fmt"
	"time"

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
// ComputeNanos the time spent in level decoding, record assembly and other
// branching work (C_i). RowsScanned is r_i. Vectorized scans additionally
// report the batch count, and carry the flag into the layout advisor so
// measured batch speed influences layout decisions.
type ScanStats struct {
	DataNanos    int64
	ComputeNanos int64
	RowsScanned  int64
	Batches      int64
	Vectorized   bool
}

// Add accumulates another scan's stats.
func (s *ScanStats) Add(o ScanStats) {
	s.DataNanos += o.DataNanos
	s.ComputeNanos += o.ComputeNanos
	s.RowsScanned += o.RowsScanned
	s.Batches += o.Batches
	s.Vectorized = s.Vectorized || o.Vectorized
}

// EmitFunc receives one projected row. The slice is reused across calls;
// callers must copy if they retain it.
type EmitFunc func(row []value.Value) error

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
	// ScanFlat emits the flattened rows projected to cols (indexes into
	// Columns()). Records whose repeated field is empty emit no rows
	// (inner-unnest semantics).
	ScanFlat(cols []int, emit EmitFunc) (ScanStats, error)
	// ScanRecords emits one row per record projected to cols, all of which
	// must be non-repeated columns.
	ScanRecords(cols []int, emit EmitFunc) (ScanStats, error)
	// ScanNested reconstructs and emits the original nested records; used
	// for layout conversion and round-trip testing.
	ScanNested(emit func(rec value.Value) error) error
}

// Builder accumulates records and produces an immutable Store.
type Builder interface {
	// Add appends one record (matching the schema the builder was built with).
	Add(rec value.Value) error
	// Finish seals the builder. The builder must not be used afterwards.
	Finish() Store
	// SizeBytes estimates the bytes buffered so far (for admission/eviction
	// decisions taken mid-build).
	SizeBytes() int64
}

// NewBuilder returns a builder for the given layout and record schema.
func NewBuilder(layout Layout, schema *value.Type) (Builder, error) {
	cols, err := value.LeafColumns(schema)
	if err != nil {
		return nil, err
	}
	switch layout {
	case LayoutColumnar:
		return newColumnarBuilder(schema, cols), nil
	case LayoutParquet:
		return newParquetBuilder(schema, cols), nil
	}
	return nil, fmt.Errorf("store: unknown layout %v", layout)
}

// NewParquetBuilder is NewBuilder(LayoutParquet, schema) returning the
// concrete builder, for callers that feed it column batches.
func NewParquetBuilder(schema *value.Type) (*ParquetBuilder, error) {
	cols, err := value.LeafColumns(schema)
	if err != nil {
		return nil, err
	}
	return newParquetBuilder(schema, cols), nil
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

// sampleEvery controls the record-granularity cost sampling inside scans:
// one record in 2^7 = 128 gets explicit clock reads (the paper's "<1% of
// records"), and the measured split is extrapolated over the whole scan.
const sampleShift = 7

// splitByRatio attributes a measured total duration to data/compute by a
// sampled ratio. If nothing was sampled, everything is data time.
func splitByRatio(total time.Duration, sampledData, sampledCompute int64) (int64, int64) {
	tot := total.Nanoseconds()
	s := sampledData + sampledCompute
	if s <= 0 {
		return tot, 0
	}
	c := tot * sampledCompute / s
	return tot - c, c
}
