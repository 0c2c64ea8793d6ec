package recache

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// recordSource is an in-memory plan.Source built from a raw provider's
// record decoder alone, the oracle the differentials hold the engine to. Its
// records are decoded once (Scan with complete(); a record one field of
// which fails is decoded field by field, and keeps each field's error), its
// typed kernel is store.Striper over them, its cursor walks every record and
// tests a pushdown on the decoded row, and its epoch never changes: no
// typed or pushdown kernel of the raw formats runs behind it.
type recordSource struct {
	schema    *value.Type
	size      int64
	recs      [][]value.Value
	offs      []int64
	at        map[int64]int   // offset → record
	bad       map[int][]error // record → each top-level field's decode error, for records with one
	leafField []int           // leaf column → its top-level field
	striper   *store.Striper
}

const recordEpoch = 1

func newRecordSource(t testing.TB, p plan.Source) *recordSource {
	t.Helper()
	schema := p.Schema()
	s := &recordSource{schema: schema, at: map[int64]int{}, bad: map[int][]error{}}
	var failed []int
	err := p.Scan([]value.Path{}, func(rec value.Value, off int64, complete func() error) error {
		s.at[off] = len(s.recs)
		s.offs = append(s.offs, off)
		if complete() != nil {
			failed = append(failed, len(s.recs))
		}
		s.recs = append(s.recs, slices.Clone(rec.L))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.size = p.SizeBytes()
	for _, i := range failed {
		row, errs := make([]value.Value, len(schema.Fields)), make([]error, len(schema.Fields))
		for fi, f := range schema.Fields {
			errs[fi] = p.ScanOffsets(s.offs[i:i+1], []value.Path{{f.Name}}, func(rec value.Value, _ int64, _ func() error) error {
				row[fi] = rec.L[fi]
				return nil
			})
		}
		s.recs[i], s.bad[i] = row, errs
	}
	cols, err := value.LeafColumns(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		s.leafField = append(s.leafField, slices.IndexFunc(schema.Fields, func(f value.Field) bool { return f.Name == c.Path[0] }))
	}
	if s.striper, err = store.NewStriper(schema); err != nil {
		t.Fatal(err)
	}
	return s
}

// fields maps paths to the top-level fields they read; nil reads them all.
func (s *recordSource) fields(paths []value.Path) []int {
	var out []int
	for fi, f := range s.schema.Fields {
		if paths == nil || slices.ContainsFunc(paths, func(p value.Path) bool { return p[0] == f.Name }) {
			out = append(out, fi)
		}
	}
	return out
}

// fail returns the first decode error of record i among fields.
func (s *recordSource) fail(i int, fields []int) error {
	if errs := s.bad[i]; errs != nil {
		for _, fi := range fields {
			if errs[fi] != nil {
				return errs[fi]
			}
		}
	}
	return nil
}

func (s *recordSource) emit(i int, needed []value.Path, fn plan.ScanFunc) error {
	if err := s.fail(i, s.fields(needed)); err != nil {
		return err
	}
	return fn(value.VRecord(s.recs[i]...), s.offs[i], func() error { return s.fail(i, s.fields(nil)) })
}

func (s *recordSource) index(off int64) (int, error) {
	i, ok := s.at[off]
	if !ok {
		return 0, fmt.Errorf("recordSource: no record starts at offset %d", off)
	}
	return i, nil
}

func (s *recordSource) Schema() *value.Type { return s.schema }
func (s *recordSource) NumRecords() int     { return len(s.recs) }
func (s *recordSource) SizeBytes() int64    { return s.size }

func (s *recordSource) Scan(needed []value.Path, fn plan.ScanFunc) error {
	return s.ScanFrom(0, needed, fn)
}

func (s *recordSource) ScanFrom(from int64, needed []value.Path, fn plan.ScanFunc) error {
	for i, off := range s.offs {
		if off < from {
			continue
		}
		if err := s.emit(i, needed, fn); err != nil {
			return err
		}
	}
	return nil
}

func (s *recordSource) ScanOffsets(offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	for _, off := range offsets {
		i, err := s.index(off)
		if err == nil {
			err = s.emit(i, needed, fn)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *recordSource) ScanOffsetsAt(epoch uint64, offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	if epoch != recordEpoch {
		return plan.ErrEpochChanged
	}
	return s.ScanOffsets(offsets, needed, fn)
}

// pass reports whether record i passes pd, with the error of a field pd
// tests.
func (s *recordSource) pass(i int, pd *expr.Pushdown) (bool, error) {
	if pd == nil {
		return true, nil
	}
	if err := s.fail(i, s.fields(pd.Cols())); err != nil {
		return false, err
	}
	return pd.TestRow(s.recs[i]), nil
}

func (s *recordSource) ScanPushdown(pd *expr.Pushdown, needed []value.Path, fn plan.ScanFunc) (skipped int64, err error) {
	for i := range s.recs {
		ok, err := s.pass(i, pd)
		if err == nil && ok {
			err = s.emit(i, needed, fn)
		}
		if err != nil {
			return skipped, err
		}
		if !ok {
			skipped++
		}
	}
	return skipped, nil
}

func (s *recordSource) Refresh() (plan.FreshnessReport, error) {
	return plan.FreshnessReport{Status: plan.FileUnchanged, Epoch: recordEpoch, Covered: s.size}, nil
}

func (s *recordSource) Version() (uint64, int64) { return recordEpoch, s.size }

func (s *recordSource) AppendColumns(epoch uint64, offsets []int64, dst []*store.Vec, lengths []int32) ([]int32, error) {
	if epoch != recordEpoch {
		return lengths, plan.ErrEpochChanged
	}
	if len(dst) != len(s.leafField) {
		return lengths, fmt.Errorf("recordSource: %d column vectors for %d leaf columns", len(dst), len(s.leafField))
	}
	for _, off := range offsets {
		i, err := s.index(off)
		for ci, v := range dst {
			if err == nil && v != nil {
				err = s.fail(i, s.leafField[ci:ci+1])
			}
		}
		if err != nil {
			return lengths, err
		}
		lengths = s.striper.Append(value.VRecord(s.recs[i]...), dst, lengths)
	}
	return lengths, nil
}

func (s *recordSource) PushdownCursor(epoch uint64, from int64, pd *expr.Pushdown) (plan.OffsetCursor, error) {
	if epoch != recordEpoch {
		return nil, plan.ErrEpochChanged
	}
	next, skipped := sort.Search(len(s.offs), func(i int) bool { return s.offs[i] >= from }), int64(0)
	return func(dst []int64, n int) ([]int64, int64, error) {
		for added := 0; added < n && next < len(s.recs); next++ {
			ok, err := s.pass(next, pd)
			if err != nil {
				return dst, skipped, err
			}
			if !ok {
				skipped++
				continue
			}
			dst, added = append(dst, s.offs[next]), added+1
		}
		return dst, skipped, nil
	}, nil
}
