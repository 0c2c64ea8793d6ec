package store

import (
	"slices"

	"recache/internal/value"
)

// BatchRows is the number of rows a batch cursor hands to the vectorized
// pipeline per step. 1024 keeps a selection vector plus a few typed columns
// inside L1/L2 while amortizing per-batch dispatch.
const BatchRows = 1024

// BatchCursor streams a cache scan as selection batches over typed column
// vectors: Cols are the projected columns (full-length, immutable, shared
// with the store), and each Next call yields the physical row indexes of
// the next batch. Kernels read Cols[...].Ints/Floats/Strs directly through
// the selection vector, so a vectorized scan never materializes a boxed
// value.Value row — that happens, if at all, only at the pipeline boundary
// (FillRows).
type BatchCursor struct {
	// Cols are the projected column vectors, aligned with the projection
	// the cursor was opened with.
	Cols []*Vec
	// Rows is the logical row need of the scan (the cost model's r_i):
	// NumFlatRows for flattened scans, NumRecords for per-record scans.
	Rows int64
	next func(buf []int32) []int32
}

// Next fills buf with the next batch's row indexes (ascending) and returns
// the filled prefix; nil when the scan is exhausted. At most cap(buf) rows
// are returned per call.
func (c *BatchCursor) Next(buf []int32) []int32 { return c.next(buf) }

// BatchSource is implemented by store layouts that can serve column batches
// directly. A false return means this store/granularity pair needs the
// row-at-a-time path (Parquet's FSM-assembled flattened view).
type BatchSource interface {
	BatchCursor(flat bool, cols []int) (*BatchCursor, bool)
}

// FillRows materializes the selected rows of the projected columns into the
// row-major chunk (stride nc, row k at chunk[k*nc:(k+1)*nc]), dispatching
// on each column's kind once per batch.
func FillRows(cols []*Vec, sel []int32, chunk []value.Value, nc int) {
	for i, v := range cols {
		FillColumn(chunk, i, nc, sel, v)
	}
}

// AppendNative boxes the selected rows of cols into Go natives — int64,
// float64, string, bool, nil for NULL — and appends one []any per selected
// index to rows, dispatching on each column's kind, and testing its null
// words, once per call. The rows
// of one call are sub-slices of a single backing slab, capacity-pinned so
// that appending to one row never overwrites its neighbour.
func AppendNative(rows [][]any, cols []*Vec, sel []int32) [][]any {
	nc := len(cols)
	slab := make([]any, len(sel)*nc)
	for i, v := range cols {
		nulls := v.Nulls.AnySel(sel)
		switch v.Kind {
		case value.Int:
			for k, r := range sel {
				if !nulls || !v.Nulls.Get(int(r)) {
					slab[k*nc+i] = v.Ints[r]
				}
			}
		case value.Float:
			for k, r := range sel {
				if !nulls || !v.Nulls.Get(int(r)) {
					slab[k*nc+i] = v.Floats[r]
				}
			}
		case value.String:
			for k, r := range sel {
				if !nulls || !v.Nulls.Get(int(r)) {
					slab[k*nc+i] = v.Strs[r]
				}
			}
		case value.Bool:
			for k, r := range sel {
				if !nulls || !v.Nulls.Get(int(r)) {
					slab[k*nc+i] = v.Bools[r]
				}
			}
		}
	}
	rows = slices.Grow(rows, len(sel))
	for k := range sel {
		rows = append(rows, slab[k*nc:(k+1)*nc:(k+1)*nc])
	}
	return rows
}

// BatchCursor implements BatchSource for the flattened columnar layout:
// both granularities are batchable. Flattened batches select the non-
// placeholder rows; per-record batches select the first physical row of
// every record (the dedup ScanRecords performs row by row).
func (s *columnarStore) BatchCursor(flat bool, cols []int) (*BatchCursor, bool) {
	if !flat {
		for _, c := range cols {
			if s.cols[c].Repeated {
				return nil, false // row path reports the projection error
			}
		}
	}
	vecs := make([]*Vec, len(cols))
	for i, c := range cols {
		vecs[i] = s.vecs[c]
	}
	n := len(s.recID)
	pos := 0
	var next func(buf []int32) []int32
	if flat {
		next = func(buf []int32) []int32 {
			out := buf[:0]
			for pos < n && len(out) < cap(buf) {
				if !s.skip[pos] {
					out = append(out, int32(pos))
				}
				pos++
			}
			if len(out) == 0 && pos >= n {
				return nil
			}
			return out
		}
	} else if s.nRecs == n {
		// Every record is one physical row (always so for a flat entry):
		// the record view is the dense row range, nothing to compare.
		next = denseNext(n)
	} else {
		prev := int32(-1)
		next = func(buf []int32) []int32 {
			out := buf[:0]
			for pos < n && len(out) < cap(buf) {
				if id := s.recID[pos]; id != prev {
					prev = id
					out = append(out, int32(pos))
				}
				pos++
			}
			if len(out) == 0 && pos >= n {
				return nil
			}
			return out
		}
	}
	rows := int64(s.NumFlatRows())
	if !flat {
		rows = int64(s.NumRecords())
	}
	return &BatchCursor{Cols: vecs, Rows: rows, next: next}, true
}

// BatchCursor implements BatchSource for the Parquet layout: per-record
// scans iterate the short per-record vectors directly (the layout's fast
// path), so they batch trivially. The flattened view of nested data needs
// FSM record assembly and is served by the row path; a flat schema has no
// repeated field, so its flattened view is the record view.
func (s *parquetStore) BatchCursor(flat bool, cols []int) (*BatchCursor, bool) {
	if flat && s.listPath != nil {
		return nil, false
	}
	for _, c := range cols {
		if s.cols[c].Repeated {
			return nil, false
		}
	}
	vecs := make([]*Vec, len(cols))
	for i, c := range cols {
		vecs[i] = s.flatVecs[c]
	}
	return &BatchCursor{Cols: vecs, Rows: int64(s.nRecs), next: denseNext(s.nRecs)}, true
}

// denseNext is the cursor step over every physical row of [0, n) in order:
// each batch is the next cap(buf) indexes, written without a comparison.
func denseNext(n int) func(buf []int32) []int32 {
	pos := 0
	return func(buf []int32) []int32 {
		if pos >= n {
			return nil
		}
		out := buf[:min(n-pos, cap(buf))]
		for k := range out {
			out[k] = int32(pos + k)
		}
		pos += len(out)
		return out
	}
}
