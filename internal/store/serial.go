package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"recache/internal/value"
)

// Spill serialization: a Parquet-layout store written as a flat binary
// stream (RCS), used by the cache's disk tier, the wire's query results and
// replica payloads. The format mirrors parquetStore's in-memory shape
// (per-column vectors and list lengths) so a spilled entry deserializes
// with typed bulk copies — no record re-assembly — keeping a disk hit far
// cheaper than a raw re-scan. Both directions work a vector at a time: the
// encoder writes null words and fixed-width payloads a chunk per Write, and
// the decoder converts each from one bounds-checked slice of the stream and
// copies a string column's bytes into one allocation.
//
// The schema is NOT serialized: a spilled entry keeps all of its metadata
// (dataset, predicate, schema) in RAM and only the payload goes to disk,
// so the reader is handed the schema and validates the stream against it
// (column count, repeated-ness, and kind per column). Numeric payloads are
// written bit-exactly (floats via IEEE-754 bits), so NaN and ±0 survive
// the round trip. Only the magic carries the format's version.

// spillMagic identifies version 2 of the spill stream, which dropped
// version 1's per-column repetition-level streams: a version-1 stream is
// rejected at its magic rather than misread.
var spillMagic = [4]byte{'R', 'C', 'S', '2'}

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
	lw := &leWriter{}
	flush := func() error { return nil }
	if bb, ok := w.(*bytes.Buffer); ok {
		// Already an in-memory sink: encode straight into it.
		bb.Grow(bufSizeFor(p.size))
		lw.w, lw.mem = bb, bb
	} else {
		// Size the buffer to the payload so a typical spill drains in one
		// or two write syscalls; the demotion write sits on the disk-hit
		// path (every re-admission demotes a victim), so per-flush
		// syscalls show up directly in the memory-pressure phase's
		// throughput.
		size := bufSizeFor(p.size)
		b := bufio.NewWriterSize(w, size)
		lw.w, flush = b, b.Flush
		lw.chunk = make([]byte, min(size, maxChunk))
	}
	bw := lw.w
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
		v := p.flatVecs[ci]
		if c.Repeated {
			bw.WriteByte(1)
			v = p.repVecs[ci]
		} else {
			bw.WriteByte(0)
		}
		if err := lw.vec(v); err != nil {
			return err
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

// leWriter encodes little-endian values into the sink. Scalars go through
// one reusable scratch array (a stack `var b [8]byte` passed to an interface
// Write escapes, one heap allocation per integer); fixed-width vectors go
// through fixed, a chunk at a time.
type leWriter struct {
	w       spillWriter
	mem     *bytes.Buffer // non-nil when the sink is in memory: vectors encode in place
	chunk   []byte        // otherwise the staging buffer vectors encode into, sized to the store
	scratch [8]byte
}

// maxChunk bounds a file sink's staging buffer: a vector larger than this
// goes to the bufio layer in several Writes of this size.
const maxChunk = 32 << 10

func (lw *leWriter) u32(x uint32) {
	binary.LittleEndian.PutUint32(lw.scratch[:4], x)
	lw.w.Write(lw.scratch[:4])
}

func (lw *leWriter) u64(x uint64) {
	binary.LittleEndian.PutUint64(lw.scratch[:], x)
	lw.w.Write(lw.scratch[:])
}

// fixed writes n values of width bytes each; put encodes the values from lo
// on into b, len(b)/width of them. An in-memory sink takes the whole vector
// in place, a file sink one Write per chunk of at most maxChunk bytes.
func (lw *leWriter) fixed(n, width int, put func(b []byte, lo int)) {
	if n == 0 {
		return
	}
	if lw.mem != nil {
		lw.mem.Grow(n * width)
		b := lw.mem.AvailableBuffer()[:n*width]
		put(b, 0)
		lw.mem.Write(b)
		return
	}
	per := len(lw.chunk) / width
	for lo := 0; lo < n; lo += per {
		b := lw.chunk[:min(n-lo, per)*width]
		put(b, lo)
		lw.w.Write(b)
	}
}

func (lw *leWriter) vec(v *vec) error {
	w := lw.w
	w.WriteByte(byte(v.Kind))
	lw.u64(uint64(v.Len()))
	words := v.Nulls.words
	lw.fixed(len(words), 8, func(b []byte, lo int) {
		for _, x := range words[lo : lo+len(b)/8] {
			binary.LittleEndian.PutUint64(b, x)
			b = b[8:]
		}
	})
	switch v.Kind {
	case value.Int:
		xs := v.Ints
		lw.fixed(len(xs), 8, func(b []byte, lo int) {
			for _, x := range xs[lo : lo+len(b)/8] {
				binary.LittleEndian.PutUint64(b, uint64(x))
				b = b[8:]
			}
		})
	case value.Float:
		xs := v.Floats
		lw.fixed(len(xs), 8, func(b []byte, lo int) {
			for _, x := range xs[lo : lo+len(b)/8] {
				binary.LittleEndian.PutUint64(b, math.Float64bits(x))
				b = b[8:]
			}
		})
	case value.Bool:
		xs := v.Bools
		lw.fixed(len(xs), 1, func(b []byte, lo int) {
			for i, x := range xs[lo : lo+len(b)] {
				b[i] = 0
				if x {
					b[i] = 1
				}
			}
		})
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

// ReadParquetBytes decodes a stream written by WriteParquet, validating it
// against the expected record schema. The returned store is a normal
// Parquet-layout store (convertible to other layouts as usual) that shares
// no memory with data: every vector, string and length is a copy, so
// the caller may reuse data as soon as the call returns (the disk tier
// reads spill files into pooled buffers, the client decodes out of its
// frame buffer). The values of one string column share one allocation, so a
// retained value keeps its column's bytes alive.
func ReadParquetBytes(data []byte, schema *value.Type) (Store, error) {
	return ReadParquetExtended(data, schema, nil)
}

// ReadParquetExtended decodes a spill stream and appends the tail records
// to it: Extend(ReadParquetBytes(data), tail) without the copy of the
// decoded vectors, which are sized for the tail up front and appended to in
// place, through a Builder, before anybody else can see the store.
func ReadParquetExtended(data []byte, schema *value.Type, tail []value.Value) (Store, error) {
	st, err := readParquet(data, schema, len(tail))
	switch {
	case err != nil:
		return nil, err
	case len(tail) == 0:
		return st, nil
	}
	b := appendTo(st, LayoutParquet)
	for _, rec := range tail {
		if err := b.Add(rec); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}

// readParquet decodes a spill stream, leaving room for extra more records
// in every vector and in the list lengths.
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
	// A repeated column has one entry per flattened row: one per list
	// element, plus one placeholder per empty list. For flat schemas the
	// flattened view is the record view.
	if hasList == 1 {
		raw, err := r.bytes(st.nRecs * 4)
		if err != nil {
			return nil, err
		}
		st.lengths = make([]int32, st.nRecs, st.nRecs+extra)
		flat := 0
		for i := range st.lengths {
			l := binary.LittleEndian.Uint32(raw[i*4:])
			st.lengths[i] = int32(l)
			flat += max(int(l), 1)
		}
		if flat != st.nFlat {
			return nil, fmt.Errorf("store: spill stream flat rows %d != lengths sum %d", st.nFlat, flat)
		}
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
		vecs, n := st.flatVecs, st.nRecs
		if c.Repeated {
			vecs, n = st.repVecs, st.nFlat
		}
		if vecs[ci], err = readVec(r, c.Type.Kind, n, extra); err != nil {
			return nil, fmt.Errorf("store: spill column %d (%s): %w", ci, c.Name(), err)
		}
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("store: %d trailing bytes in spill stream", len(r.buf)-r.off)
	}
	st.size = st.computeSize()
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
	// The check above proved the null words and any fixed-width payload are
	// there, so each comes off the stream as one slice.
	v := &vec{Kind: want}
	v.Nulls.n = n
	v.Nulls.words = make([]uint64, words)
	raw, _ := r.bytes(words * 8)
	for i := range v.Nulls.words {
		v.Nulls.words[i] = binary.LittleEndian.Uint64(raw)
		raw = raw[8:]
	}
	switch want {
	case value.Int:
		raw, _ := r.bytes(n * 8)
		v.Ints = make([]int64, n, n+extra)
		for i := range v.Ints {
			v.Ints[i] = int64(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
		}
	case value.Float:
		raw, _ := r.bytes(n * 8)
		v.Floats = make([]float64, n, n+extra)
		for i := range v.Floats {
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
		}
	case value.Bool:
		raw, _ := r.bytes(n)
		v.Bools = make([]bool, n, n+extra)
		for i, b := range raw {
			v.Bools[i] = b != 0
		}
	case value.String:
		// One pass proves every length prefix against the bytes left and sums
		// them; the second copies the column's bytes into one allocation, sized
		// by Grow, and slices each value out of it as it lands (a
		// strings.Builder never rewrites bytes it has handed out).
		start, total := r.off, 0
		for range n {
			l, err := r.u32()
			if err != nil {
				return nil, err
			}
			if _, err := r.bytes(int(l)); err != nil {
				return nil, err
			}
			total += int(l)
		}
		var sb strings.Builder
		sb.Grow(total)
		v.Strs = make([]string, n, n+extra)
		for i := range v.Strs {
			l := int(binary.LittleEndian.Uint32(r.buf[start:]))
			sb.Write(r.buf[start+4 : start+4+l])
			v.Strs[i] = sb.String()[sb.Len()-l:]
			start += 4 + l
		}
	default:
		return nil, fmt.Errorf("unsupported vec kind %s", want)
	}
	return v, nil
}
