package store

import (
	"fmt"
	"time"

	"recache/internal/value"
)

// parquetStore is the Dremel/Parquet-style nested columnar layout (§4):
// every leaf is striped into its own vector without duplication.
// Non-repeated leaves store exactly one entry per record — the "shorter
// columns" that make Parquet fast when queries touch only non-nested
// attributes. Repeated leaves store one entry per list element plus one
// placeholder entry for records with an empty list, each tagged with a
// repetition level (0 = first entry of a record, 1 = continuation), as in
// the Dremel paper. Null elements and placeholders are encoded through the
// vector's null bitmap (the definition-level information collapses to
// presence because the engine normalizes absent optional fields to nulls at
// ingestion; see DESIGN.md).
//
// Record reconstruction at scan time walks the level streams with an
// FSM-style cursor per column. That per-entry branching is Parquet's
// computational cost C_i: it is measured (sampled) and reported separately
// from data-access time D_i, feeding the layout-selection cost model.
type parquetStore struct {
	schema   *value.Type
	cols     []value.LeafColumn
	flatVecs []*vec    // nil for repeated columns; 1 entry/record otherwise
	repVecs  []*vec    // nil for non-repeated; 1 entry/level-entry otherwise
	reps     [][]uint8 // repetition-level stream per repeated column
	lengths  []int32   // list cardinality per record (nil for flat schemas)
	listPath value.Path
	nRecs    int
	nFlat    int // R: sum over records of max(card,1)... see NumFlatRows
	size     int64
}

// ParquetBuilder builds a Parquet-layout store. Beside the Builder methods
// it takes whole column batches (AppendBatch) when the schema is flat, which
// is how a batch-native query result reaches the RCS1 encoder without being
// boxed into records first.
type ParquetBuilder struct {
	st    *parquetStore
	paths leafPaths
}

func newParquetBuilder(schema *value.Type, cols []value.LeafColumn) *ParquetBuilder {
	st := &parquetStore{schema: schema, cols: cols}
	st.flatVecs = make([]*vec, len(cols))
	st.repVecs = make([]*vec, len(cols))
	st.reps = make([][]uint8, len(cols))
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
			st.reps[ci] = append(st.reps[ci], 0)
			st.repVecs[ci].AppendVal(value.VNull)
		default:
			for e := range elems {
				r := uint8(1)
				if e == 0 {
					r = 0
				}
				st.reps[ci] = append(st.reps[ci], r)
				st.repVecs[ci].AppendVal(value.GetAt(elems[e], idx))
			}
		}
	}
	return nil
}

// AppendBatch appends the rows sel of the column vectors cols, one vector
// per field of the schema. A flat schema's vectors are its leaf columns and
// are gathered whole; a nested schema's rows are boxed and striped as Add
// stripes records. Either way the store is indistinguishable from — and
// serializes to the same RCS1 bytes as — one built by Add-ing the same
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
		sz += int64(len(s.reps[ci]))
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

// ScanFlat implements Store: FSM-style record assembly, following the
// Dremel reconstruction algorithm. For every output row the FSM performs a
// transition per selected column: it reads the column's next repetition
// level, validates it against the expected state (0 starts a record, 1
// continues the list), applies the definition/null decision, and only then
// fetches the value. Non-repeated columns participate in every transition
// too — their reader re-emits the record-level value for each flattened
// row, exactly the duplicated work the relational columnar layout avoids.
// This per-row, per-column branching is Parquet's computational cost C_i
// (§4.1: "the FSM-based reconstruction algorithm requires significantly
// more computation and adds more CPU pipeline-breaking branches").
// One record in 128 is timed to split the scan into C_i and D_i.
func (s *parquetStore) ScanFlat(cols []int, emit EmitFunc) (ScanStats, error) {
	start := time.Now()

	type colState struct {
		idx      int
		repeated bool
		v        *vec
		reps     []uint8
		cursor   int // level-entry cursor for repeated columns
	}
	states := make([]colState, len(cols))
	for i, c := range cols {
		states[i] = colState{idx: c, repeated: s.cols[c].Repeated}
		if states[i].repeated {
			states[i].v = s.repVecs[c]
			states[i].reps = s.reps[c]
		} else {
			states[i].v = s.flatVecs[c]
		}
	}

	buf := make([]value.Value, len(cols))
	srcIdx := make([]int32, len(cols))
	var sampledData, sampledCompute int64
	sampleMask := (1 << sampleShift) - 1

	for ri := 0; ri < s.nRecs; ri++ {
		card := s.card(ri)
		sampled := ri&sampleMask == 0
		var tRec time.Time
		var recCompute int64
		if sampled {
			tRec = time.Now()
		}
		n := card
		if n == 0 {
			n = 1 // placeholder level entry to consume
		}
		for e := 0; e < n; e++ {
			var t0 time.Time
			if sampled {
				t0 = time.Now()
			}
			// FSM transition: one state update per selected column.
			want := uint8(1)
			if e == 0 {
				want = 0
			}
			for si := range states {
				st := &states[si]
				if st.repeated {
					rep := st.reps[st.cursor]
					if rep != want {
						return ScanStats{}, fmt.Errorf("store: corrupt repetition stream at record %d", ri)
					}
					// Peek the next level to decide whether the list
					// continues (the FSM's next-state computation).
					if st.cursor+1 < len(st.reps) && st.reps[st.cursor+1] == 1 && e == n-1 && card > 0 {
						return ScanStats{}, fmt.Errorf("store: repetition stream overruns record %d", ri)
					}
					if card == 0 || st.v.Nulls.Get(st.cursor) {
						srcIdx[si] = -1
					} else {
						srcIdx[si] = int32(st.cursor)
					}
					st.cursor++
				} else {
					// Non-repeated reader re-emits its record value per row,
					// with the definition (null) check applied each time.
					if st.v.Nulls.Get(ri) {
						srcIdx[si] = -1
					} else {
						srcIdx[si] = int32(ri)
					}
				}
			}
			if sampled {
				recCompute += time.Since(t0).Nanoseconds()
			}
			if card == 0 {
				continue // placeholder entry: levels consumed, nothing emitted
			}
			// Value fetch (data phase for this row).
			for si := range states {
				ix := srcIdx[si]
				if ix < 0 {
					buf[si] = value.VNull
				} else {
					buf[si] = states[si].v.Get(int(ix))
				}
			}
			if err := emit(buf); err != nil {
				return ScanStats{}, err
			}
		}
		if sampled {
			total := time.Since(tRec).Nanoseconds()
			sampledCompute += recCompute
			if total > recCompute {
				sampledData += total - recCompute
			}
		}
	}

	data, comp := splitByRatio(time.Since(start), sampledData, sampledCompute)
	return ScanStats{
		DataNanos:    data,
		ComputeNanos: comp,
		RowsScanned:  int64(s.nFlat),
	}, nil
}

// ScanRecords implements Store: the Parquet fast path. Non-repeated columns
// have exactly one entry per record, so the scan iterates the short
// per-record vectors directly with no assembly.
func (s *parquetStore) ScanRecords(cols []int, emit EmitFunc) (ScanStats, error) {
	for _, c := range cols {
		if s.cols[c].Repeated {
			return ScanStats{}, fmt.Errorf("store: ScanRecords cannot project repeated column %q", s.cols[c].Name())
		}
	}
	start := time.Now()
	vecs := make([]*vec, len(cols))
	for i, c := range cols {
		vecs[i] = s.flatVecs[c]
	}
	buf := make([]value.Value, len(cols))
	for ri := 0; ri < s.nRecs; ri++ {
		for i, v := range vecs {
			buf[i] = v.Get(ri)
		}
		if err := emit(buf); err != nil {
			return ScanStats{}, err
		}
	}
	return ScanStats{
		DataNanos:   time.Since(start).Nanoseconds(),
		RowsScanned: int64(s.nRecs),
	}, nil
}

// ScanNested implements Store.
func (s *parquetStore) ScanNested(emit func(rec value.Value) error) error {
	asm := newAssembler(s.schema, s.cols, s.flatVecs, s.repVecs)
	// Level-entry cursor shared across repeated columns (they are aligned:
	// one list per schema).
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
