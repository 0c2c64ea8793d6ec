package store

import (
	"fmt"

	"recache/internal/value"
)

// Bitmap is a packed null bitmap: bit i set means entry i is null. It is
// word-based (64 entries per uint64) so batch kernels can test nulls with
// one shift/mask instead of a byte load per row, and so an all-null or
// mostly-null vector costs 1 bit per entry instead of 1 byte.
type Bitmap struct {
	words []uint64
	n     int
}

// Len returns the number of entries tracked.
func (b *Bitmap) Len() int { return b.n }

// Append adds one entry.
func (b *Bitmap) Append(null bool) {
	if b.n>>6 == len(b.words) {
		b.words = append(b.words, 0)
	}
	if null {
		b.words[b.n>>6] |= 1 << (uint(b.n) & 63)
	}
	b.n++
}

// Get reports whether entry i is null.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// AnySel reports whether any entry the ascending selection sel can address
// is null: the words covering sel[0]..sel[len(sel)-1], a few word loads
// per batch. Batch kernels test it once per selection and skip the per-row
// Get when it is false. Every batch selection is ascending — cursors emit
// rows in order, filters keep that order, a join's output batch is an
// identity selection.
func (b *Bitmap) AnySel(sel []int32) bool {
	if len(sel) == 0 {
		return false
	}
	return b.anyIn(int(sel[0]), int(sel[len(sel)-1]))
}

// anyIn reports whether any entry of the words covering [lo, hi] is null.
// It is conservative at the two boundary words, which is what lets a batch
// kernel test a whole selection range with a few word loads.
func (b *Bitmap) anyIn(lo, hi int) bool {
	for _, w := range b.words[lo>>6 : hi>>6+1] {
		if w != 0 {
			return true
		}
	}
	return false
}

// appendValid adds n non-null entries, whole words at a time.
func (b *Bitmap) appendValid(n int) {
	b.n += n
	for need := (b.n + 63) >> 6; len(b.words) < need; {
		b.words = append(b.words, 0)
	}
}

// truncate drops the entries from n on, clearing their bits: Append only
// sets bits, so a regrown bitmap must find them zero.
func (b *Bitmap) truncate(n int) {
	b.words = b.words[:(n+63)>>6]
	if r := uint(n) & 63; r != 0 {
		b.words[len(b.words)-1] &= 1<<r - 1
	}
	b.n = n
}

// Clone deep-copies the bitmap: appends to either side never alias, even
// mid-word (the trailing partially-filled word is copied by value).
func (b *Bitmap) Clone() Bitmap {
	return Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// SizeBytes is the bitmap's memory footprint.
func (b *Bitmap) SizeBytes() int64 { return int64(len(b.words)) * 8 }

// Vec is a typed column vector with a null bitmap. It is the unit of
// storage for both the columnar and Parquet layouts, and — via Batch — the
// unit the batch executor reads directly: exactly the slice matching Kind
// is populated, so kernels index Ints/Floats/Strs/Bools with no per-cell
// type dispatch. A Record or List vector is the one boxed kind: Boxed holds
// whole values, as a record decoder returns them. No store holds one (a
// store's columns are its scalar leaves); an executor column of a
// sub-record or a list does.
type Vec struct {
	Kind   value.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Boxed  []value.Value
	Nulls  Bitmap
}

// vec is the historical internal name; layouts predate the export.
type vec = Vec

func newVec(t *value.Type) *Vec {
	return &Vec{Kind: t.Kind}
}

// Len returns the number of entries.
func (v *Vec) Len() int { return v.Nulls.Len() }

// AppendVal appends one value, converting numerics to the column's kind.
func (v *Vec) AppendVal(val value.Value) {
	isNull := val.Kind == value.Null
	v.Nulls.Append(isNull)
	switch v.Kind {
	case value.Int:
		if isNull {
			v.Ints = append(v.Ints, 0)
		} else {
			v.Ints = append(v.Ints, val.AsInt())
		}
	case value.Float:
		if isNull {
			v.Floats = append(v.Floats, 0)
		} else {
			v.Floats = append(v.Floats, val.AsFloat())
		}
	case value.String:
		if isNull {
			v.Strs = append(v.Strs, "")
		} else {
			v.Strs = append(v.Strs, val.S)
		}
	case value.Bool:
		if isNull {
			v.Bools = append(v.Bools, false)
		} else {
			v.Bools = append(v.Bools, val.B)
		}
	case value.Record, value.List:
		v.Boxed = append(v.Boxed, val)
	default:
		panic(fmt.Sprintf("store: vec of unsupported kind %s", v.Kind))
	}
}

// Truncate drops the entries from n on, keeping the capacity: a decoder
// reuses a vector chunk to chunk, or takes back what a record it has to
// decode again appended.
func (v *Vec) Truncate(n int) {
	switch v.Kind {
	case value.Int:
		v.Ints = v.Ints[:n]
	case value.Float:
		v.Floats = v.Floats[:n]
	case value.String:
		clear(v.Strs[n:])
		v.Strs = v.Strs[:n]
	case value.Bool:
		v.Bools = v.Bools[:n]
	case value.Record, value.List:
		clear(v.Boxed[n:])
		v.Boxed = v.Boxed[:n]
	}
	v.Nulls.truncate(n)
}

// AppendRange appends src's entries lo..hi-1, a typed copy per call; both
// vectors share a kind.
func (v *Vec) AppendRange(src *Vec, lo, hi int) {
	n := v.Len()
	switch v.Kind {
	case value.Int:
		v.Ints = append(v.Ints, src.Ints[lo:hi]...)
	case value.Float:
		v.Floats = append(v.Floats, src.Floats[lo:hi]...)
	case value.String:
		v.Strs = append(v.Strs, src.Strs[lo:hi]...)
	case value.Bool:
		v.Bools = append(v.Bools, src.Bools[lo:hi]...)
	case value.Record, value.List:
		v.Boxed = append(v.Boxed, src.Boxed[lo:hi]...)
	}
	v.Nulls.appendValid(hi - lo)
	if hi == lo || !src.Nulls.anyIn(lo, hi-1) {
		return
	}
	for i := lo; i < hi; i++ {
		if src.Nulls.Get(i) {
			j := n + i - lo
			v.Nulls.words[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// Get materializes the i-th value.
func (v *Vec) Get(i int) value.Value {
	if v.Nulls.Get(i) {
		return value.VNull
	}
	switch v.Kind {
	case value.Int:
		return value.VInt(v.Ints[i])
	case value.Float:
		return value.VFloat(v.Floats[i])
	case value.String:
		return value.VString(v.Strs[i])
	case value.Bool:
		return value.VBool(v.Bools[i])
	case value.Record, value.List:
		return v.Boxed[i]
	}
	return value.VNull
}

// SizeBytes estimates the memory footprint of the vector.
func (v *Vec) SizeBytes() int64 {
	sz := v.Nulls.SizeBytes()
	switch v.Kind {
	case value.Int:
		sz += int64(len(v.Ints)) * 8
	case value.Float:
		sz += int64(len(v.Floats)) * 8
	case value.Bool:
		sz += int64(len(v.Bools))
	case value.String:
		sz += int64(len(v.Strs)) * 16
		for _, s := range v.Strs {
			sz += int64(len(s))
		}
	case value.Record, value.List:
		for _, b := range v.Boxed {
			sz += b.ShallowSize()
		}
	}
	return sz
}
