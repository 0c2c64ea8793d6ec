package store

import "recache/internal/value"

// Extend builds a store holding src's records followed by the tail records,
// without mutating src (stores are immutable; concurrent scans of src stay
// valid). For a flat schema, in either layout, this is a vector-level copy —
// the typed column slices are copied wholesale and only the tail goes
// through per-row append — so extending a cached entry over an appended
// file tail costs a memcpy of the old payload instead of re-boxing every
// old row through a Builder. A nested store has no copy path: it reports
// ok=false.
func Extend(src Store, tail []value.Value) (st Store, ok bool, err error) {
	switch s := src.(type) {
	case *columnarStore:
		st, err = s.extend(tail)
	case *parquetStore:
		if s.listPath != nil {
			return nil, false, nil
		}
		st, err = s.extend(tail)
	default:
		return nil, false, nil
	}
	return st, true, err
}

// cloneCap copies the vector with room for extra more entries, so the
// appends that follow never reallocate.
func (v *Vec) cloneCap(extra int) *Vec {
	nv := &Vec{Kind: v.Kind, Nulls: v.Nulls.Clone()}
	switch v.Kind {
	case value.Int:
		nv.Ints = append(make([]int64, 0, len(v.Ints)+extra), v.Ints...)
	case value.Float:
		nv.Floats = append(make([]float64, 0, len(v.Floats)+extra), v.Floats...)
	case value.String:
		nv.Strs = append(make([]string, 0, len(v.Strs)+extra), v.Strs...)
	case value.Bool:
		nv.Bools = append(make([]bool, 0, len(v.Bools)+extra), v.Bools...)
	}
	return nv
}

func (s *columnarStore) extend(tail []value.Value) (Store, error) {
	ns := &columnarStore{schema: s.schema, cols: s.cols, nRecs: s.nRecs}
	ns.vecs = make([]*vec, len(s.vecs))
	for i, v := range s.vecs {
		ns.vecs[i] = v.cloneCap(len(tail))
	}
	ns.recID = append(make([]int32, 0, len(s.recID)+len(tail)), s.recID...)
	ns.skip = append(make([]bool, 0, len(s.skip)+len(tail)), s.skip...)
	b := &columnarBuilder{st: ns, paths: resolveLeafPaths(s.schema, s.cols)}
	for _, rec := range tail {
		if err := b.Add(rec); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}

// extend is the flat-schema case: one entry per record in every vector, no
// list lengths, so the builder appends the tail behind copies of them.
func (s *parquetStore) extend(tail []value.Value) (Store, error) {
	ns := &parquetStore{schema: s.schema, cols: s.cols, nRecs: s.nRecs, nFlat: s.nFlat}
	ns.flatVecs = make([]*vec, len(s.flatVecs))
	for i, v := range s.flatVecs {
		ns.flatVecs[i] = v.cloneCap(len(tail))
	}
	ns.repVecs = make([]*vec, len(s.cols))
	b := &ParquetBuilder{st: ns, paths: resolveLeafPaths(s.schema, s.cols)}
	for _, rec := range tail {
		if err := b.Add(rec); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}
