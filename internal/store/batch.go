package store

import (
	"fmt"
	"slices"
	"time"

	"recache/internal/value"
)

// BatchRows is the number of rows a batch cursor hands to the vectorized
// pipeline per step. 1024 keeps a selection vector plus a few typed columns
// inside L1/L2 while amortizing per-batch dispatch.
const BatchRows = 1024

// BatchCursor streams a cache scan as selection batches over typed column
// vectors: Cols are the projected columns (full-length and immutable), and
// each Next call yields the physical row indexes of the next batch.
// Kernels read Cols[...].Ints/Floats/Strs directly through the selection
// vector, so a cache scan never materializes a boxed value.Value row.
type BatchCursor struct {
	// Cols are the projected column vectors, aligned with the projection
	// the cursor was opened with.
	Cols []*Vec
	// Rows is the logical row need of the scan (the cost model's r_i):
	// NumFlatRows for flattened scans, NumRecords for per-record scans.
	Rows int64
	// ComputeNanos is the time the cursor spent expanding records into
	// flattened rows when it opened (the cost model's C_i): Parquet's price
	// for a flattened view, nothing for the columnar layout, which stores
	// that view.
	ComputeNanos int64
	next         func(buf []int32) []int32
}

// Next fills buf with the next batch's row indexes (ascending) and returns
// the filled prefix; nil when the scan is exhausted. At most cap(buf) rows
// are returned per call.
func (c *BatchCursor) Next(buf []int32) []int32 { return c.next(buf) }

// FillRows materializes the selected rows of the projected columns into the
// row-major chunk (stride nc, row k at chunk[k*nc:(k+1)*nc]), dispatching
// on each column's kind, and testing its null words, once per batch.
func FillRows(cols []*Vec, sel []int32, chunk []value.Value, nc int) {
	for i, v := range cols {
		fillSlot(v, i, sel, chunk, nc)
	}
}

// FillSlots is FillRows of the columns at slots alone, into rows of
// len(slots) values: column slots[j] at position j of each row. A row
// predicate that reads a few of a batch's columns boxes only those.
func FillSlots(cols []*Vec, slots []int, sel []int32, chunk []value.Value) {
	for j, i := range slots {
		fillSlot(cols[i], j, sel, chunk, len(slots))
	}
}

// fillSlot boxes the selected rows of v into slot i of the chunk's rows.
func fillSlot(v *Vec, i int, sel []int32, chunk []value.Value, nc int) {
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
	case value.Record, value.List:
		for k, r := range sel {
			chunk[k*nc+i] = v.Boxed[r] // VNull at a null
		}
	}
}

// AppendNative boxes the selected rows of cols into Go natives — int64,
// float64, string, bool, nil for NULL, a record or list as its rendering —
// and appends one []any per selected
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
		case value.Record, value.List: // rendered, as a boxed value renders
			for k, r := range sel {
				if !nulls || !v.Nulls.Get(int(r)) {
					slab[k*nc+i] = v.Boxed[r].String()
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

// recordColumns checks that a per-record cursor projects no repeated column.
func recordColumns(leaves []value.LeafColumn, cols []int) error {
	for _, c := range cols {
		if leaves[c].Repeated {
			return fmt.Errorf("store: a per-record scan cannot project repeated column %q", leaves[c].Name())
		}
	}
	return nil
}

// BatchCursor implements Store for the flattened columnar layout: flattened
// batches select the non-placeholder rows; per-record batches select the
// first physical row of every record.
func (s *columnarStore) BatchCursor(flat bool, cols []int) (*BatchCursor, error) {
	if !flat {
		if err := recordColumns(s.cols, cols); err != nil {
			return nil, err
		}
	}
	vecs := make([]*Vec, len(cols))
	for i, c := range cols {
		vecs[i] = s.vecs[c]
	}
	n := len(s.recID)
	var next func(buf []int32) []int32
	if flat {
		next = skipNext(s.skip)
	} else if s.nRecs == n {
		// Every record is one physical row (always so for a flat entry):
		// the record view is the dense row range, nothing to compare.
		next = denseNext(n)
	} else {
		pos, prev := 0, int32(-1)
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
	return &BatchCursor{Cols: vecs, Rows: rows, next: next}, nil
}

// BatchCursor implements Store for the Parquet layout: per-record
// scans iterate the short per-record vectors directly (the layout's fast
// path), and a flat schema's flattened view is its record view. The
// flattened view of nested data is expanded when the cursor opens: each
// record leaf is gathered once per flattened row of its record — the
// columnar layout's repeated parents, built per scan — and the repeated
// leaves are read as stored, their empty-list placeholders skipped. The
// expansion is the cursor's ComputeNanos. A projected read's cursor fails
// over a leaf, or a flattening of the list lengths, that the read left out.
func (s *parquetStore) BatchCursor(flat bool, cols []int) (*BatchCursor, error) {
	for _, c := range cols {
		if s.leaf(c) == nil {
			return nil, fmt.Errorf("store: leaf %q was not read into this store", s.cols[c].Name())
		}
	}
	if flat && s.listPath != nil && s.noLengths {
		return nil, fmt.Errorf("store: the list lengths of %s were not read into this store", s.schema)
	}
	vecs := make([]*Vec, len(cols))
	if !flat || s.listPath == nil {
		if err := recordColumns(s.cols, cols); err != nil {
			return nil, err
		}
		for i, c := range cols {
			vecs[i] = s.flatVecs[c]
		}
		return &BatchCursor{Cols: vecs, Rows: int64(s.nRecs), next: denseNext(s.nRecs)}, nil
	}
	t0 := time.Now()
	recID, skip := flatRows(s.lengths)
	for i, c := range cols {
		if vecs[i] = s.repVecs[c]; !s.cols[c].Repeated {
			vecs[i] = Gather(s.flatVecs[c], recID)
		}
	}
	return &BatchCursor{Cols: vecs, Rows: int64(s.nFlat), next: skipNext(skip),
		ComputeNanos: time.Since(t0).Nanoseconds()}, nil
}

// skipNext is the cursor step over the rows of [0, len(skip)) that skip
// does not mark, in order.
func skipNext(skip []bool) func(buf []int32) []int32 {
	pos, n := 0, len(skip)
	return func(buf []int32) []int32 {
		out := buf[:0]
		for pos < n && len(out) < cap(buf) {
			if !skip[pos] {
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
