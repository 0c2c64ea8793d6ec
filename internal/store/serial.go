package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"recache/internal/value"
)

// RCS: a Parquet-form store written as a flat binary stream, used by the
// cache's disk tier, the wire's query results and replica payloads. The
// stream is the little-endian memory image of the store's vectors, laid out
// so that every null word, int and float sits at an 8-byte offset and every
// list length at a 4-byte one:
//
//	magic "RCS3" | hasList u8 | nRecs u64 | nFlat u64 | ncols u32
//	if hasList:  zero pad to 4 | nRecs × u32 list lengths
//	per column:  repeated u8 | kind u8 | n u64 | zero pad to 8
//	             ⌈n/64⌉ × u64 null words | payload
//	payload:     Int, Float: n × 8 bytes (floats as IEEE-754 bits)
//	             Bool: n bytes; String: n × (u32 length | bytes)
//
// Offsets count from the stream's first byte, all integers are
// little-endian. The encoder writes a vector's null words and fixed-width
// payload as the bytes they are in memory, one Write each. There are two
// decoders:
//
//   - ReadParquetOwned takes the buffer it decodes. Its store's null words,
//     ints, floats and list lengths are views of the buffer (cap == len, so
//     an append never writes into it) and its strings point into it; only
//     the string-header arrays and bools are allocated. The store is
//     charged the whole buffer (SizeBytes), and a store derived from it
//     that gains rows (Concat, Extend) copies out of the buffer completely.
//     The disk tier re-admits spill files this way, and replica admission
//     validates a pushed payload. On a big-endian host, or when the
//     buffer's first byte is not 8-byte aligned, it copies instead.
//   - ReadParquetBytes copies: the store shares no memory with the input,
//     which the caller may reuse at once (the wire client decodes out of
//     its pooled frame buffers).
//
// Neither adds a row: a stream is the image of a payload already built.
//
// The schema is NOT serialized: a spilled entry keeps all of its metadata
// (dataset, predicate, schema) in RAM and only the payload goes to disk,
// so the reader is handed the schema and validates the stream against it
// (column count, repeated-ness, and kind per column). Numeric payloads are
// bit-exact, so NaN and ±0 survive the round trip. Only the magic carries
// the format's version.

// spillMagic identifies version 3 of the stream, which pads its sections to
// their values' alignment: a version-1 or version-2 stream is rejected at
// its magic rather than misread.
var spillMagic = [4]byte{'R', 'C', 'S', '3'}

// littleEndian: the host's memory image of a number is its stream bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// fileBuf is the write buffer of a stream sink that is not in memory: the
// framing and short vectors gather in it, and a long vector's remainder
// goes to the sink in one Write.
const fileBuf = 32 << 10

// spillWriter is what the stream encoder needs from its sink. Both
// *bufio.Writer and *bytes.Buffer satisfy it, so in-memory encodes (the
// wire path serializes every query result) skip the bufio layer entirely.
type spillWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// WriteParquet serializes a Parquet-layout store to w. It returns an error
// if st is not the Parquet layout: a columnar store is a view, and the
// payload it was derived from is what a spill file or a replica holds.
func WriteParquet(w io.Writer, st Store) error {
	p, ok := st.(*parquetStore)
	if !ok {
		return fmt.Errorf("store: WriteParquet: not a parquet store (layout %s)", st.Layout())
	}
	lw := &leWriter{}
	flush := func() error { return nil }
	if bb, ok := w.(*bytes.Buffer); ok {
		// Already an in-memory sink: encode straight into it, grown once to
		// the payload plus its framing.
		bb.Grow(int(p.size) + 24*len(p.cols) + 32)
		lw.w = bb
	} else {
		b := bufio.NewWriterSize(w, fileBuf)
		lw.w, flush = b, b.Flush
	}
	lw.write(spillMagic[:])
	hasList := byte(0)
	if p.listPath != nil {
		hasList = 1
	}
	lw.u8(hasList)
	lw.u64(uint64(p.nRecs))
	lw.u64(uint64(p.nFlat))
	lw.u32(uint32(len(p.cols)))
	if hasList == 1 {
		lw.pad(4)
		lw.write(le(p.lengths))
	}
	for ci, c := range p.cols {
		v := p.flatVecs[ci]
		if c.Repeated {
			lw.u8(1)
			v = p.repVecs[ci]
		} else {
			lw.u8(0)
		}
		if err := lw.vec(v); err != nil {
			return err
		}
	}
	// A failed Write sticks in the bufio layer and surfaces here.
	return flush()
}

// leWriter encodes little-endian values into the sink, counting the stream
// offset the alignment pads are measured from. Scalars go through one
// reusable scratch array (a stack `var b [8]byte` passed to an interface
// Write escapes, one heap allocation per integer).
type leWriter struct {
	w       spillWriter
	off     int
	scratch [8]byte
}

func (lw *leWriter) write(b []byte) {
	lw.w.Write(b)
	lw.off += len(b)
}

func (lw *leWriter) u8(x byte) {
	lw.w.WriteByte(x)
	lw.off++
}

func (lw *leWriter) u32(x uint32) {
	binary.LittleEndian.PutUint32(lw.scratch[:4], x)
	lw.write(lw.scratch[:4])
}

func (lw *leWriter) u64(x uint64) {
	binary.LittleEndian.PutUint64(lw.scratch[:], x)
	lw.write(lw.scratch[:])
}

// zeros is the padding a stream holds.
var zeros [8]byte

// pad writes zero bytes up to the next multiple of align (a power of two).
func (lw *leWriter) pad(align int) {
	lw.write(zeros[:-lw.off&(align-1)])
}

func (lw *leWriter) vec(v *vec) error {
	lw.u8(byte(v.Kind))
	lw.u64(uint64(v.Len()))
	lw.pad(8)
	lw.write(le(v.Nulls.words))
	switch v.Kind {
	case value.Int:
		lw.write(le(v.Ints))
	case value.Float:
		lw.write(le(v.Floats))
	case value.Bool:
		lw.write(bytesOf(v.Bools)) // a Go bool is the byte 0 or 1
	case value.String:
		lw.strs(v.Strs)
	default:
		return fmt.Errorf("store: WriteParquet: unsupported vec kind %s", v.Kind)
	}
	return nil
}

// strScratch recycles the buffer strs encodes through.
var strScratch = sync.Pool{New: func() any { b := make([]byte, 0, fileBuf); return &b }}

// strs writes a string column's length prefixes and bytes through one
// scratch buffer, a chunk of at most fileBuf bytes at a time; a value too
// long for the buffer goes to the sink by itself, after its prefix.
func (lw *leWriter) strs(strs []string) {
	scratch := strScratch.Get().(*[]byte)
	buf := (*scratch)[:0]
	for _, s := range strs {
		if len(buf)+4+len(s) > fileBuf {
			lw.write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		if 4+len(s) > fileBuf {
			lw.write(buf)
			buf = buf[:0]
			lw.w.WriteString(s)
			lw.off += len(s)
			continue
		}
		buf = append(buf, s...)
	}
	lw.write(buf)
	*scratch = buf
	strScratch.Put(scratch)
}

// fixedWidth is a value the stream holds as its little-endian bytes.
type fixedWidth interface {
	int32 | uint64 | int64 | float64
}

// bytesOf returns the memory of xs as bytes (nil when xs is empty).
func bytesOf[T fixedWidth | bool](xs []T) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(xs[0])))
}

// le returns xs as their stream bytes: their memory itself on a
// little-endian host, a byte-swapped copy otherwise.
func le[T fixedWidth](xs []T) []byte {
	b := bytesOf(xs)
	if !littleEndian && len(b) > 0 {
		b = bytes.Clone(b)
		swapBytes(b, int(unsafe.Sizeof(xs[0])))
	}
	return b
}

// swapBytes reverses the bytes of each width-byte value of b in place:
// between host order and little-endian on a big-endian host.
func swapBytes(b []byte, width int) {
	for i := 0; i < len(b); i += width {
		slices.Reverse(b[i : i+width])
	}
}

// spillReader decodes the stream out of one contiguous buffer. With alias
// set, fixed-width sections and string bytes are views of buf.
type spillReader struct {
	buf   []byte
	off   int
	alias bool
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

// pad consumes the zero bytes up to the next multiple of align.
func (r *spillReader) pad(align int) error {
	b, err := r.bytes(-r.off & (align - 1))
	if err != nil {
		return err
	}
	for _, x := range b {
		if x != 0 {
			return fmt.Errorf("store: nonzero padding at offset %d", r.off-len(b))
		}
	}
	return nil
}

// fixed reads n values of T off the stream: a view of the buffer when the
// reader aliases it, otherwise a copy.
func fixed[T fixedWidth](r *spillReader, n int) ([]T, error) {
	width := int(unsafe.Sizeof(T(0)))
	raw, err := r.bytes(n * width)
	switch {
	case err != nil:
		return nil, err
	case r.alias && n > 0:
		return unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]T, n)
	b := bytesOf(out)
	copy(b, raw)
	if !littleEndian {
		swapBytes(b, width)
	}
	return out, nil
}

// ReadParquetBytes decodes a stream written by WriteParquet, validating it
// against the expected record schema. The returned store is a normal
// Parquet-layout store (Flatten derives its view as from any other) that
// shares no memory with data: every vector, string and length is a copy,
// so the caller may reuse data as soon as the call returns (the client
// decodes out of its pooled frame buffers). The values of one string column
// share one allocation, so a retained value keeps its column's bytes alive.
func ReadParquetBytes(data []byte, schema *value.Type) (Store, error) {
	return readParquet(data, schema, false)
}

// ReadParquetOwned decodes a stream as ReadParquetBytes does, but takes
// data: the store's fixed-width vectors and list lengths are views of it
// and its strings point into it, and the store is charged its bytes. The
// caller must not write to data while the store lives. It copies, as ReadParquetBytes
// does, on a big-endian host or when data's first byte is not 8-byte
// aligned.
func ReadParquetOwned(data []byte, schema *value.Type) (Store, error) {
	alias := littleEndian && len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 == 0
	return readParquet(data, schema, alias)
}

// readParquet decodes a spill stream into vectors of their own, or, with
// alias set, into views of data.
func readParquet(data []byte, schema *value.Type, alias bool) (*parquetStore, error) {
	r := &spillReader{buf: data, alias: alias}
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
		if err := r.pad(4); err != nil {
			return nil, err
		}
		if st.lengths, err = fixed[int32](r, st.nRecs); err != nil {
			return nil, err
		}
		flat := 0
		for _, l := range st.lengths {
			if l < 0 {
				return nil, fmt.Errorf("store: spill stream has list length %d", l)
			}
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
		if vecs[ci], err = readVec(r, c.Type.Kind, n); err != nil {
			return nil, fmt.Errorf("store: spill column %d (%s): %w", ci, c.Name(), err)
		}
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("store: %d trailing bytes in spill stream", len(r.buf)-r.off)
	}
	if alias {
		st.backing = data
	}
	st.size = st.computeSize()
	return st, nil
}

func readVec(r *spillReader, want value.Kind, wantLen int) (*vec, error) {
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
	if err := r.pad(8); err != nil {
		return nil, err
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
	v.Nulls.words, _ = fixed[uint64](r, words)
	switch want {
	case value.Int:
		v.Ints, _ = fixed[int64](r, n)
	case value.Float:
		v.Floats, _ = fixed[float64](r, n)
	case value.Bool:
		raw, _ := r.bytes(n)
		v.Bools = make([]bool, n)
		for i, b := range raw {
			v.Bools[i] = b != 0
		}
	case value.String:
		// Every length prefix is proved against the bytes left before its
		// value is sliced out of the buffer; a copying decode then moves the
		// column's bytes into one allocation of its own.
		v.Strs = make([]string, n)
		for i := range v.Strs {
			l, err := r.u32()
			if err != nil {
				return nil, err
			}
			b, err := r.bytes(int(l))
			if err != nil {
				return nil, err
			}
			if l > 0 {
				v.Strs[i] = unsafe.String(&b[0], l)
			}
		}
		if !r.alias {
			detachStrings(v.Strs)
		}
	default:
		return nil, fmt.Errorf("unsupported vec kind %s", want)
	}
	return v, nil
}

// detachStrings copies the bytes of strs into one allocation of their own
// and points every value at its copy: a column leaves the buffer it was
// decoded from, or a store copied from a buffer-backed one leaves that
// buffer.
func detachStrings(strs []string) {
	total := 0
	for _, s := range strs {
		total += len(s)
	}
	// A strings.Builder never rewrites bytes it has handed out.
	var sb strings.Builder
	sb.Grow(total)
	for i, s := range strs {
		sb.WriteString(s)
		strs[i] = sb.String()[sb.Len()-len(s):]
	}
}
