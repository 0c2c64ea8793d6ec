package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"recache/internal/value"
)

// Spill serialization: a Parquet-layout store written as a flat binary
// stream, used by the cache's disk tier. The format mirrors parquetStore's
// in-memory shape (per-column vectors, repetition streams, list lengths)
// so a spilled entry deserializes with typed bulk copies — no record
// re-assembly — keeping a disk hit far cheaper than a raw re-scan.
//
// The schema is NOT serialized: a spilled entry keeps all of its metadata
// (dataset, predicate, schema) in RAM and only the payload goes to disk,
// so the reader is handed the schema and validates the stream against it
// (column count, repeated-ness, and kind per column). Numeric payloads are
// written bit-exactly (floats via IEEE-754 bits), so NaN and ±0 survive
// the round trip.

// spillMagic identifies version 1 of the spill stream.
var spillMagic = [4]byte{'R', 'C', 'S', '1'}

// spillWriter is what the stream encoder needs from its sink. Both
// *bufio.Writer and *bytes.Buffer satisfy it, so in-memory encodes (the
// wire path serializes every query result) skip the bufio layer — and its
// per-call buffer allocation — entirely.
type spillWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// WriteParquet serializes a Parquet-layout store to w. It returns an error
// if st is not the Parquet layout (callers convert first; see Convert).
func WriteParquet(w io.Writer, st Store) error {
	p, ok := st.(*parquetStore)
	if !ok {
		return fmt.Errorf("store: WriteParquet: not a parquet store (layout %s)", st.Layout())
	}
	var bw spillWriter
	var flush func() error
	if bb, ok := w.(*bytes.Buffer); ok {
		// Already an in-memory sink: write straight into it.
		bb.Grow(bufSizeFor(p.size))
		bw = bb
		flush = func() error { return nil }
	} else {
		// Size the buffer to the payload so a typical spill drains in one
		// or two write syscalls; the demotion write sits on the disk-hit
		// path (every re-admission demotes a victim), so per-flush
		// syscalls show up directly in the memory-pressure phase's
		// throughput.
		b := bufio.NewWriterSize(w, bufSizeFor(p.size))
		bw = b
		flush = b.Flush
	}
	lw := &leWriter{w: bw}
	if _, err := bw.Write(spillMagic[:]); err != nil {
		return err
	}
	hasList := byte(0)
	if p.listPath != nil {
		hasList = 1
	}
	bw.WriteByte(hasList)
	lw.u64(uint64(p.nRecs))
	lw.u64(uint64(p.nFlat))
	lw.u32(uint32(len(p.cols)))
	if hasList == 1 {
		for _, l := range p.lengths {
			lw.u32(uint32(l))
		}
	}
	for ci, c := range p.cols {
		rep := byte(0)
		if c.Repeated {
			rep = 1
		}
		bw.WriteByte(rep)
		if c.Repeated {
			lw.u64(uint64(len(p.reps[ci])))
			bw.Write(p.reps[ci])
			if err := lw.vec(p.repVecs[ci]); err != nil {
				return err
			}
		} else {
			if err := lw.vec(p.flatVecs[ci]); err != nil {
				return err
			}
		}
	}
	return flush()
}

// bufSizeFor clamps a store's in-memory size to a sane bufio buffer:
// at least the default 4KB, at most 1MB (large entries stream through).
func bufSizeFor(sz int64) int {
	const lo, hi = 4 << 10, 1 << 20
	switch {
	case sz < lo:
		return lo
	case sz > hi:
		return hi
	default:
		return int(sz) + 64 // header + per-vec framing slack
	}
}

// leWriter wraps the sink with a reusable little-endian scratch buffer.
// A stack `var b [8]byte` passed to an interface Write escapes, which
// costs one heap allocation per integer written — per value in a column
// vector. One leWriter per encode amortizes that to a single allocation.
type leWriter struct {
	w       spillWriter
	scratch [8]byte
}

func (lw *leWriter) u32(x uint32) {
	binary.LittleEndian.PutUint32(lw.scratch[:4], x)
	lw.w.Write(lw.scratch[:4])
}

func (lw *leWriter) u64(x uint64) {
	binary.LittleEndian.PutUint64(lw.scratch[:], x)
	lw.w.Write(lw.scratch[:])
}

func (lw *leWriter) vec(v *vec) error {
	w := lw.w
	w.WriteByte(byte(v.Kind))
	n := v.Len()
	lw.u64(uint64(n))
	for _, word := range v.Nulls.words {
		lw.u64(word)
	}
	switch v.Kind {
	case value.Int:
		for _, x := range v.Ints {
			lw.u64(uint64(x))
		}
	case value.Float:
		for _, x := range v.Floats {
			lw.u64(math.Float64bits(x))
		}
	case value.Bool:
		for _, x := range v.Bools {
			b := byte(0)
			if x {
				b = 1
			}
			w.WriteByte(b)
		}
	case value.String:
		for _, s := range v.Strs {
			lw.u32(uint32(len(s)))
			w.WriteString(s)
		}
	default:
		return fmt.Errorf("store: WriteParquet: unsupported vec kind %s", v.Kind)
	}
	return nil
}

// spillReader decodes the stream out of one contiguous buffer.
type spillReader struct {
	buf []byte
	off int
}

func (r *spillReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, fmt.Errorf("store: spill stream truncated at offset %d (need %d bytes)", r.off, n)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *spillReader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *spillReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *spillReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// ReadParquet deserializes a spill stream written by WriteParquet,
// validating it against the expected record schema. The returned store is
// a normal Parquet-layout store (convertible to other layouts as usual).
// Callers that already hold the whole stream (the spill tier reads files
// with os.ReadFile) should use ReadParquetBytes and skip the copy.
func ReadParquet(rd io.Reader, schema *value.Type) (Store, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	return ReadParquetBytes(data, schema)
}

// ReadParquetBytes decodes a spill stream from an in-memory buffer. The
// returned store aliases data's string bytes only via copies (string(raw)),
// so data may be released after the call.
func ReadParquetBytes(data []byte, schema *value.Type) (Store, error) {
	return ReadParquetExtended(data, schema, nil)
}

// ReadParquetExtended decodes a spill stream and appends the tail records
// to it (a non-empty tail needs a flat schema, like Extend):
// Extend(ReadParquetBytes(data), tail) without the copy of the decoded
// vectors, which are sized for the tail up front and appended to in place
// before anybody else can see the store.
func ReadParquetExtended(data []byte, schema *value.Type, tail []value.Value) (Store, error) {
	st, err := readParquet(data, schema, len(tail))
	switch {
	case err != nil:
		return nil, err
	case len(tail) == 0:
		return st, nil
	case st.listPath != nil:
		return nil, fmt.Errorf("store: schema %s has a repeated field: nested stores never extend", schema)
	}
	b := &ParquetBuilder{st: st, paths: resolveLeafPaths(schema, st.cols)}
	for _, rec := range tail {
		if err := b.Add(rec); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}

// readParquet decodes a spill stream, leaving room for extra more entries in
// every flat vector.
func readParquet(data []byte, schema *value.Type, extra int) (*parquetStore, error) {
	r := &spillReader{buf: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != spillMagic {
		return nil, fmt.Errorf("store: bad spill magic %q", magic)
	}
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return nil, err
	}
	st := &parquetStore{
		schema:   schema,
		cols:     cols,
		listPath: value.RepeatedFieldCached(schema),
		flatVecs: make([]*vec, len(cols)),
		repVecs:  make([]*vec, len(cols)),
		reps:     make([][]uint8, len(cols)),
	}
	hasList, err := r.u8()
	if err != nil {
		return nil, err
	}
	if (hasList == 1) != (st.listPath != nil) {
		return nil, fmt.Errorf("store: spill stream list presence %v does not match schema %s", hasList == 1, schema)
	}
	nRecs, err := r.u64()
	if err != nil {
		return nil, err
	}
	nFlat, err := r.u64()
	if err != nil {
		return nil, err
	}
	st.nRecs = int(nRecs)
	st.nFlat = int(nFlat)
	ncols, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(ncols) != len(cols) {
		return nil, fmt.Errorf("store: spill stream has %d columns, schema %s has %d", ncols, schema, len(cols))
	}
	// A corrupt (or, on the wire path, hostile) stream must not size
	// allocations from counts the payload cannot back: every flat row costs
	// at least one null-bitmap bit per column, so nFlat — and a flat
	// stream's nRecs — is bounded by 8× the bytes left; a list stream
	// additionally spends four bytes per record on lengths.
	rem := uint64(len(r.buf) - r.off)
	if nRecs > 8*rem || nFlat > 8*rem {
		return nil, fmt.Errorf("store: spill stream claims %d records / %d flat rows with %d bytes left", nRecs, nFlat, rem)
	}
	if hasList == 1 && nRecs*4 > rem {
		return nil, fmt.Errorf("store: spill stream claims %d list lengths with %d bytes left", nRecs, rem)
	}
	// Expected level-entry count: one per list element, plus one placeholder
	// per empty list. For flat schemas the flattened view is the record view.
	levelEntries := st.nRecs
	if hasList == 1 {
		st.lengths = make([]int32, st.nRecs)
		flat, entries := 0, 0
		for i := range st.lengths {
			l, err := r.u32()
			if err != nil {
				return nil, err
			}
			st.lengths[i] = int32(l)
			if l == 0 {
				flat++
				entries++
			} else {
				flat += int(l)
				entries += int(l)
			}
		}
		if flat != st.nFlat {
			return nil, fmt.Errorf("store: spill stream flat rows %d != lengths sum %d", st.nFlat, flat)
		}
		levelEntries = entries
	} else if st.nFlat != st.nRecs {
		return nil, fmt.Errorf("store: flat spill stream has nFlat %d != nRecs %d", st.nFlat, st.nRecs)
	}
	for ci, c := range cols {
		rep, err := r.u8()
		if err != nil {
			return nil, err
		}
		if (rep == 1) != c.Repeated {
			return nil, fmt.Errorf("store: spill column %d repeated=%v, schema says %v", ci, rep == 1, c.Repeated)
		}
		if c.Repeated {
			nr, err := r.u64()
			if err != nil {
				return nil, err
			}
			if int(nr) != levelEntries {
				return nil, fmt.Errorf("store: spill column %d has %d level entries, want %d", ci, nr, levelEntries)
			}
			raw, err := r.bytes(int(nr))
			if err != nil {
				return nil, err
			}
			st.reps[ci] = append([]uint8(nil), raw...)
			v, err := readVec(r, c.Type.Kind, levelEntries, 0)
			if err != nil {
				return nil, fmt.Errorf("store: spill column %d (%s): %w", ci, c.Name(), err)
			}
			st.repVecs[ci] = v
		} else {
			v, err := readVec(r, c.Type.Kind, st.nRecs, extra)
			if err != nil {
				return nil, fmt.Errorf("store: spill column %d (%s): %w", ci, c.Name(), err)
			}
			st.flatVecs[ci] = v
		}
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("store: %d trailing bytes in spill stream", len(r.buf)-r.off)
	}
	var sz int64
	for ci := range st.cols {
		if v := st.flatVecs[ci]; v != nil {
			sz += v.SizeBytes()
		}
		if v := st.repVecs[ci]; v != nil {
			sz += v.SizeBytes()
		}
		sz += int64(len(st.reps[ci]))
	}
	st.size = sz + int64(len(st.lengths))*4
	return st, nil
}

func readVec(r *spillReader, want value.Kind, wantLen, extra int) (*vec, error) {
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	if value.Kind(kind) != want {
		return nil, fmt.Errorf("vec kind %s, schema says %s", value.Kind(kind), want)
	}
	n64, err := r.u64()
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n < 0 || n != wantLen {
		return nil, fmt.Errorf("vec has %d entries, want %d", n, wantLen)
	}
	// Size every allocation only after the stream proves it holds at least
	// the minimum encoding of n entries (bitmap words plus fixed-width
	// payload, or the 4-byte length prefixes for strings).
	words := (n + 63) / 64
	need := int64(words) * 8
	switch want {
	case value.Int, value.Float:
		need += int64(n) * 8
	case value.Bool:
		need += int64(n)
	case value.String:
		need += int64(n) * 4
	}
	if rem := int64(len(r.buf) - r.off); need > rem {
		return nil, fmt.Errorf("vec of %d entries needs %d bytes, stream has %d", n, need, rem)
	}
	v := &vec{Kind: want}
	v.Nulls.n = n
	v.Nulls.words = make([]uint64, words)
	for i := range v.Nulls.words {
		w, err := r.u64()
		if err != nil {
			return nil, err
		}
		v.Nulls.words[i] = w
	}
	switch want {
	case value.Int:
		v.Ints = make([]int64, n, n+extra)
		for i := range v.Ints {
			x, err := r.u64()
			if err != nil {
				return nil, err
			}
			v.Ints[i] = int64(x)
		}
	case value.Float:
		v.Floats = make([]float64, n, n+extra)
		for i := range v.Floats {
			x, err := r.u64()
			if err != nil {
				return nil, err
			}
			v.Floats[i] = math.Float64frombits(x)
		}
	case value.Bool:
		raw, err := r.bytes(n)
		if err != nil {
			return nil, err
		}
		v.Bools = make([]bool, n, n+extra)
		for i, b := range raw {
			v.Bools[i] = b != 0
		}
	case value.String:
		v.Strs = make([]string, n, n+extra)
		for i := range v.Strs {
			l, err := r.u32()
			if err != nil {
				return nil, err
			}
			raw, err := r.bytes(int(l))
			if err != nil {
				return nil, err
			}
			v.Strs[i] = string(raw)
		}
	default:
		return nil, fmt.Errorf("unsupported vec kind %s", want)
	}
	return v, nil
}
