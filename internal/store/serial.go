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
// so that every section starts at an 8-byte offset and every null word, int
// and float sits at one, and a directory in the header says where each
// column's section starts:
//
//	header:     magic "RCS4" | hasList u8 | zero pad to 8 | nRecs u64 |
//	            nFlat u64 | ncols u32 | zero pad to 8
//	directory:  (ncols+1) × u64: the offset of each column's section, then
//	            the stream's length
//	if hasList: nRecs × u32 list lengths | zero pad to 8
//	per column: repeated u8 | kind u8 | zero pad to 8 | n u64 |
//	            ⌈n/64⌉ × u64 null words | payload | zero pad to 8
//	payload:    Int, Float: n × 8 bytes (floats as IEEE-754 bits)
//	            Bool: n bytes; String: n × (u32 length | bytes)
//
// Offsets count from the stream's first byte, all integers are
// little-endian. The encoder writes a vector's null words and fixed-width
// payload as the bytes they are in memory, one Write each; it sizes every
// section before it writes the header, a fixed-width one from its length
// and a string one by a pass over its values' lengths.
//
// The directory makes a projected read a walk of the header and the
// sections of the leaves a scan needs (and the list lengths, which sit
// between the directory and the first section); nothing else of the stream
// is touched. Both decoders take the whole stream in memory and check the
// directory before they touch a section — it must start where the lengths
// end, end where the stream does, and give every column exactly the bytes
// its kind and length take (at least those, for strings) — and each
// section they walk must fill its extent exactly. There are two decoders:
//
//   - ReadParquetView decodes the sections a Leaves names as views of the
//     stream, which must outlive the store: the cache's disk tier hands it
//     a spill file's mapping (MapFile). The store's null words, ints, floats
//     and list lengths are views of the stream (cap == len, so an append
//     never writes into it). Its string bytes are copied out, one
//     allocation per string column: a string header must never point into
//     memory the collector does not see, and a query's result carries the
//     headers of the strings it scanned past the scan. Its bools are
//     allocated. A leaf it did not read is missing from the store: a
//     cursor over it fails, and the store cannot be written. Concat
//     copies out of the stream; Append links a tail behind the views, a
//     chain that is readable only as long as the stream is (chainStore).
//     Every disk hit reads this way, and, with AllLeaves, replica
//     validation. On a big-endian host, or from a stream that does not
//     start at an 8-byte address, it copies as ReadParquetBytes does.
//   - ReadParquetBytes decodes every leaf and copies: the store shares no
//     memory with the input, which the caller may reuse at once (the wire
//     client decodes out of its pooled frame buffers).
//
// Neither adds a row: a stream is the image of a payload already built.
//
// The schema is NOT serialized: a spilled entry keeps all of its metadata
// (dataset, predicate, schema) in RAM and only the payload goes to disk,
// so the reader is handed the schema and validates the stream against it
// (column count, repeated-ness, and kind per column). Numeric payloads are
// bit-exact, so NaN and ±0 survive the round trip. Only the magic carries
// the format's version.

// spillMagic identifies version 4 of the stream, whose header carries the
// column directory: a stream of an earlier version is rejected at its magic
// rather than misread.
var spillMagic = [4]byte{'R', 'C', 'S', '4'}

// headerLen is the bytes of a stream's header and directory for ncols
// columns: where the list lengths, or the first section, begin.
func headerLen(ncols int) int64 { return 32 + 8*int64(ncols+1) }

// align8 rounds n up to a multiple of 8.
func align8(n int64) int64 { return (n + 7) &^ 7 }

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
// if st is not the Parquet layout — a columnar store is a view, and the
// payload it was derived from is what a spill file or a replica holds — or
// if st is a projected read that lacks some of its leaves. A chain streams
// its chunks in order, as one stream byte-identical to its compaction's:
// each section holds every chunk's values of its column, and only the null
// words of a chunk that starts mid-word are shifted into place.
func WriteParquet(w io.Writer, st Store) error {
	var one [1]*parquetStore // a store held whole, without an allocation
	chunks := one[:]
	switch s := st.(type) {
	case *parquetStore:
		one[0] = s
	case *chainStore:
		chunks = s.chunks
	default:
		return fmt.Errorf("store: WriteParquet: not a parquet store (layout %s)", st.Layout())
	}
	p := chunks[0]
	if p.partial() {
		return fmt.Errorf("store: WriteParquet: a projected read holds only some of the leaves of %s", p.schema)
	}
	dir, err := directory(chunks)
	if err != nil {
		return err
	}
	lw := &leWriter{}
	flush := func() error { return nil }
	if bb, ok := w.(*bytes.Buffer); ok {
		// Already an in-memory sink: encode straight into it, grown once to
		// the stream's length.
		bb.Grow(int(dir[len(dir)-1]))
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
	lw.pad(8)
	lw.u64(uint64(st.NumRecords()))
	lw.u64(uint64(st.NumFlatRows()))
	lw.u32(uint32(len(p.cols)))
	lw.pad(8)
	for _, off := range dir {
		lw.u64(uint64(off))
	}
	if hasList == 1 {
		for _, ch := range chunks {
			lw.write(le(ch.lengths))
		}
		lw.pad(8)
	}
	for ci, c := range p.cols {
		rep := byte(0)
		if c.Repeated {
			rep = 1
		}
		lw.u8(rep)
		if err := lw.vec(chunks, ci); err != nil {
			return err
		}
	}
	// A failed Write sticks in the bufio layer and surfaces here.
	return flush()
}

// directory computes the stream offset of every column section of the
// chunks laid end to end and, last, the stream's length.
func directory(chunks []*parquetStore) ([]int64, error) {
	p := chunks[0]
	dir := make([]int64, len(p.cols)+1)
	off := headerLen(len(p.cols))
	if p.listPath != nil {
		nRecs := 0
		for _, ch := range chunks {
			nRecs += ch.nRecs
		}
		off += align8(4 * int64(nRecs))
	}
	for ci := range p.cols {
		dir[ci] = off
		n, err := sectionLen(chunks, ci)
		if err != nil {
			return nil, err
		}
		off += n
	}
	dir[len(p.cols)] = off
	return dir, nil
}

// sectionLen is the bytes of the section of column ci of the chunks laid
// end to end: its framing, null words and payload, padded to 8.
func sectionLen(chunks []*parquetStore, ci int) (int64, error) {
	var n, payload int64
	for _, ch := range chunks {
		v := ch.leaf(ci)
		n += int64(v.Len())
		switch v.Kind {
		case value.Int, value.Float:
			payload += 8 * int64(v.Len())
		case value.Bool:
			payload += int64(v.Len())
		case value.String:
			for _, s := range v.Strs {
				payload += 4 + int64(len(s))
			}
		default:
			return 0, fmt.Errorf("store: WriteParquet: unsupported vec kind %s", v.Kind)
		}
	}
	return align8(16 + 8*((n+63)/64) + payload), nil
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

// vec writes the rest of the section of column ci of the chunks laid end
// to end: its kind, length, null words and payload, and the pad that ends
// the section.
func (lw *leWriter) vec(chunks []*parquetStore, ci int) error {
	kind, n := chunks[0].leaf(ci).Kind, 0
	for _, ch := range chunks {
		n += ch.leaf(ci).Len()
	}
	lw.u8(byte(kind))
	lw.pad(8)
	lw.u64(uint64(n))
	lw.write(le(nullWords(chunks, ci)))
	for _, ch := range chunks {
		switch v := ch.leaf(ci); kind {
		case value.Int:
			lw.write(le(v.Ints))
		case value.Float:
			lw.write(le(v.Floats))
		case value.Bool:
			lw.write(bytesOf(v.Bools)) // a Go bool is the byte 0 or 1
		case value.String:
			lw.strs(v.Strs)
		default:
			return fmt.Errorf("store: WriteParquet: unsupported vec kind %s", kind)
		}
	}
	lw.pad(8)
	return nil
}

// nullWords returns the null words of column ci of the chunks laid end to
// end: the one chunk's own words, or those of a bitmap every chunk's is
// appended to.
func nullWords(chunks []*parquetStore, ci int) []uint64 {
	if len(chunks) == 1 {
		return chunks[0].leaf(ci).Nulls.words
	}
	var b Bitmap
	for _, ch := range chunks {
		b.appendBitmap(&ch.leaf(ci).Nulls)
	}
	return b.words
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

// grown copies xs into new memory with room for exactly extra more values,
// and clears only that room. make would clear the whole allocation before
// the copy overwrote most of it, and growing by append would round the room
// up by a quarter of xs. A strings.Builder grows into memory the allocator
// does not clear: xs's bytes are written into a fresh builder's buffer, the
// string the builder holds covers them, and the room past it, which no
// string covers, becomes the vector's to append into.
func grown[T fixedWidth | bool](xs []T, extra int) []T {
	if len(xs) == 0 {
		return make([]T, 0, extra)
	}
	var b strings.Builder
	b.Grow((len(xs) + extra) * int(unsafe.Sizeof(xs[0])))
	b.Write(bytesOf(xs))
	out := unsafe.Slice((*T)(unsafe.Pointer(unsafe.StringData(b.String()))), len(xs)+extra)
	clear(out[len(xs):])
	return out[:len(xs)]
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

// Leaves names the part of a stored Parquet form a read needs: leaf
// columns, by their index in Columns order, and whether the records' list
// lengths come too. A flattening read of nested data needs the lengths,
// and a repeated leaf brings them along.
type Leaves struct {
	Cols    []int
	Lengths bool
}

// AllLeaves names every part of schema's Parquet form.
func AllLeaves(schema *value.Type) Leaves {
	cols, _ := value.LeafColumnsCached(schema)
	all := Leaves{Cols: make([]int, len(cols)), Lengths: true}
	for i := range all.Cols {
		all.Cols[i] = i
	}
	return all
}

// LeavesOf resolves dotted leaf-column names against schema: the part of
// its Parquet form a read of those columns needs, flattening or not.
func LeavesOf(schema *value.Type, names []string, flat bool) (Leaves, error) {
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return Leaves{}, err
	}
	l := Leaves{Cols: make([]int, len(names)), Lengths: flat}
	for i, n := range names {
		if l.Cols[i] = slices.IndexFunc(cols, func(c value.LeafColumn) bool { return c.Name() == n }); l.Cols[i] < 0 {
			return Leaves{}, fmt.Errorf("store: no column %q in schema %s", n, schema)
		}
	}
	return l, nil
}

// rcsHeader is a stream's header and directory, checked against the schema
// and the stream's length.
type rcsHeader struct {
	cols         []value.LeafColumn
	listPath     value.Path
	nRecs, nFlat int
	dir          []byte // the directory's bytes: per column its section's offset, then the stream's length
}

// at returns directory entry i.
func (h *rcsHeader) at(i int) int64 { return int64(binary.LittleEndian.Uint64(h.dir[8*i:])) }

// section returns the extent [lo, hi) of column ci's section.
func (h *rcsHeader) section(ci int) (lo, hi int64) { return h.at(ci), h.at(ci + 1) }

// lengths returns the extent [lo, hi) of the list lengths (empty for a
// schema without a repeated field).
func (h *rcsHeader) lengths() (lo, hi int64) { return headerLen(len(h.cols)), h.at(0) }

// rows is the number of entries column ci holds.
func (h *rcsHeader) rows(ci int) int {
	if h.cols[ci].Repeated {
		return h.nFlat
	}
	return h.nRecs
}

// parseHeader reads the header and directory at the start of the stream b
// and checks them against schema: the magic, the list flag, the column
// count, the zero pads, and a directory that starts where the lengths end,
// ends where the stream does, and gives every column the bytes its kind and
// entry count take — exactly for a fixed-width kind, at least their length
// prefixes for strings.
func parseHeader(b []byte, schema *value.Type) (rcsHeader, error) {
	size := int64(len(b))
	if len(b) < 4 {
		return rcsHeader{}, fmt.Errorf("store: spill stream truncated at offset 0 (need 4 bytes)")
	}
	if [4]byte(b[:4]) != spillMagic {
		return rcsHeader{}, fmt.Errorf("store: bad spill magic %q", b[:4])
	}
	cols, err := value.LeafColumnsCached(schema)
	if err != nil {
		return rcsHeader{}, err
	}
	h := rcsHeader{cols: cols, listPath: value.RepeatedFieldCached(schema)}
	hl := headerLen(len(cols))
	if size < hl {
		return rcsHeader{}, fmt.Errorf("store: spill stream of %d bytes is shorter than the %d-byte header of %d columns", size, hl, len(cols))
	}
	r := &spillReader{buf: b[:hl], off: 4}
	hasList, _ := r.u8()
	if hasList > 1 || (hasList == 1) != (h.listPath != nil) {
		return rcsHeader{}, fmt.Errorf("store: spill stream list presence %v does not match schema %s", hasList == 1, schema)
	}
	if err := r.pad(8); err != nil {
		return rcsHeader{}, err
	}
	nRecs, _ := r.u64()
	nFlat, _ := r.u64()
	ncols, _ := r.u32()
	if err := r.pad(8); err != nil {
		return rcsHeader{}, err
	}
	if int(ncols) != len(cols) {
		return rcsHeader{}, fmt.Errorf("store: spill stream has %d columns, schema %s has %d", ncols, schema, len(cols))
	}
	// A corrupt (or, on the wire path, hostile) stream must not size
	// anything from counts the stream cannot back: every entry costs at
	// least one null-bitmap bit, and a list stream spends four bytes per
	// record on lengths.
	if nRecs > 8*uint64(size) || nFlat > 8*uint64(size) {
		return rcsHeader{}, fmt.Errorf("store: spill stream claims %d records / %d flat rows in %d bytes", nRecs, nFlat, size)
	}
	h.nRecs, h.nFlat = int(nRecs), int(nFlat)
	// A repeated column has one entry per flattened row: one per list
	// element, plus one placeholder per empty list. For flat schemas the
	// flattened view is the record view.
	if h.listPath == nil && h.nFlat != h.nRecs {
		return rcsHeader{}, fmt.Errorf("store: flat spill stream has nFlat %d != nRecs %d", h.nFlat, h.nRecs)
	}
	if h.listPath != nil && h.nFlat < h.nRecs {
		return rcsHeader{}, fmt.Errorf("store: spill stream has %d flat rows for %d records", h.nFlat, h.nRecs)
	}
	h.dir = b[32:hl]
	for i := range len(cols) + 1 {
		if off := binary.LittleEndian.Uint64(h.dir[8*i:]); off > uint64(size) {
			return rcsHeader{}, fmt.Errorf("store: spill directory entry %d is offset %d, past the stream's %d bytes", i, off, size)
		}
	}
	want := hl
	if h.listPath != nil {
		want += align8(4 * int64(h.nRecs))
	}
	if h.at(0) != want {
		return rcsHeader{}, fmt.Errorf("store: spill directory puts column 0 at offset %d, the lengths end at %d", h.at(0), want)
	}
	if h.at(len(cols)) != size {
		return rcsHeader{}, fmt.Errorf("store: spill directory ends at offset %d, the stream at %d", h.at(len(cols)), size)
	}
	for ci, c := range cols {
		lo, hi := h.section(ci)
		n := int64(h.rows(ci))
		least := 16 + 8*((n+63)/64)
		exact := true
		switch c.Type.Kind {
		case value.Int, value.Float:
			least += 8 * n
		case value.Bool:
			least += n
		case value.String:
			least, exact = least+4*n, false
		default:
			return rcsHeader{}, fmt.Errorf("store: spill column %d (%s): unsupported kind %s", ci, c.Name(), c.Type.Kind)
		}
		least = align8(least)
		if hi-lo < least || exact && hi-lo != least || (hi-lo)%8 != 0 {
			return rcsHeader{}, fmt.Errorf("store: spill directory gives column %d (%s) %d bytes for %d %s entries",
				ci, c.Name(), hi-lo, n, c.Type.Kind)
		}
	}
	return h, nil
}

// decode builds a store of the parts of the stream data that want names,
// each column read once. With alias set, the fixed-width vectors and list
// lengths are views of data.
func (h *rcsHeader) decode(schema *value.Type, want Leaves, data []byte, alias bool) (*parquetStore, error) {
	n := len(h.cols)
	vecs := make([]*vec, 2*n)
	st := &parquetStore{
		schema:    schema,
		cols:      h.cols,
		listPath:  h.listPath,
		flatVecs:  vecs[:n:n],
		repVecs:   vecs[n:],
		nRecs:     h.nRecs,
		nFlat:     h.nFlat,
		noLengths: h.listPath != nil && !h.needsLengths(want),
	}
	if h.listPath != nil && !st.noLengths {
		lo, hi := h.lengths()
		r := &spillReader{buf: data[lo:hi:hi], alias: alias}
		var err error
		if st.lengths, err = fixed[int32](r, h.nRecs); err != nil {
			return nil, err
		}
		if err := r.end(); err != nil {
			return nil, fmt.Errorf("store: spill list lengths: %w", err)
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
	}
	for _, ci := range want.Cols {
		if ci < 0 || ci >= n {
			return nil, fmt.Errorf("store: no leaf column %d in %s", ci, schema)
		}
		if st.leaf(ci) != nil {
			continue
		}
		c := h.cols[ci]
		lo, hi := h.section(ci)
		v, err := readSection(&spillReader{buf: data[lo:hi:hi], alias: alias}, c, h.rows(ci))
		if err != nil {
			return nil, fmt.Errorf("store: spill column %d (%s): %w", ci, c.Name(), err)
		}
		if c.Repeated {
			st.repVecs[ci] = v
		} else {
			st.flatVecs[ci] = v
		}
	}
	return st, nil
}

// needsLengths reports whether a read of want needs the list lengths.
func (h *rcsHeader) needsLengths(want Leaves) bool {
	if want.Lengths {
		return true
	}
	for _, ci := range want.Cols {
		if ci >= 0 && ci < len(h.cols) && h.cols[ci].Repeated {
			return true
		}
	}
	return false
}

// ReadParquetBytes decodes a stream written by WriteParquet, validating it
// against the expected record schema. The returned store is a normal
// Parquet-layout store (Flatten derives its view as from any other) that
// shares no memory with data: every vector, string and length is a copy,
// so the caller may reuse data as soon as the call returns (the client
// decodes out of its pooled frame buffers). The values of one string column
// share one allocation, so a retained value keeps its column's bytes alive.
func ReadParquetBytes(data []byte, schema *value.Type) (Store, error) {
	return readStream(data, schema, AllLeaves(schema), false)
}

// ReadParquetView decodes the parts want names of the stream data, which
// must stay readable for as long as the store is: the store's fixed-width
// vectors and list lengths are views of data, and only its strings (one
// allocation per column) and bools are copied out. A leaf want does not
// name is missing from the store (BatchCursor over it fails, WriteParquet
// refuses it), and so are the list lengths unless want needs them. It
// copies, as ReadParquetBytes does, on a big-endian host or when data does
// not start at an 8-byte address.
func ReadParquetView(data []byte, schema *value.Type, want Leaves) (Store, error) {
	return readStream(data, schema, want, littleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0)
}

// readStream is both decoders: the parts want names of the stream data,
// views of it with alias set.
func readStream(data []byte, schema *value.Type, want Leaves, alias bool) (Store, error) {
	h, err := parseHeader(data, schema)
	if err != nil {
		return nil, err
	}
	st, err := h.decode(schema, want, data, alias)
	if err != nil {
		return nil, err
	}
	st.size = st.computeSize()
	return st, nil
}

// spillReader decodes one extent of the stream, which starts at an 8-byte
// stream offset. With alias set, fixed-width sections are views of buf.
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

// end consumes the pad that closes an extent and checks that nothing
// follows it: a directory that gives an extent more bytes than its values
// and pad is inconsistent.
func (r *spillReader) end() error {
	if err := r.pad(8); err != nil {
		return err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("store: %d bytes past the values of a %d-byte extent", len(r.buf)-r.off, len(r.buf))
	}
	return nil
}

// fixed reads n values of T off the stream: a view of it when the reader
// aliases it, otherwise a copy.
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

// readSection decodes one column section — the column's flag, kind, length,
// null words and payload — which must fill r's extent exactly.
func readSection(r *spillReader, c value.LeafColumn, wantLen int) (*vec, error) {
	rep, err := r.u8()
	if err != nil {
		return nil, err
	}
	if (rep == 1) != c.Repeated {
		return nil, fmt.Errorf("repeated=%v, schema says %v", rep == 1, c.Repeated)
	}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	want := c.Type.Kind
	if value.Kind(kind) != want {
		return nil, fmt.Errorf("vec kind %s, schema says %s", value.Kind(kind), want)
	}
	if err := r.pad(8); err != nil {
		return nil, err
	}
	n64, err := r.u64()
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n < 0 || n != wantLen {
		return nil, fmt.Errorf("vec has %d entries, want %d", n, wantLen)
	}
	// parseHeader proved the extent holds at least the minimum encoding of
	// n entries (bitmap words plus fixed-width payload, or the 4-byte length
	// prefixes for strings) before anything is sized from n, so the null
	// words and any fixed-width payload come off the stream as one slice.
	words := (n + 63) / 64
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
		// value is sliced out of the stream; the column's bytes then move
		// into one allocation of their own, in every decode.
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
		detachStrings(v.Strs)
	default:
		return nil, fmt.Errorf("unsupported vec kind %s", want)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return v, nil
}

// detachStrings copies the bytes of strs into one allocation of their own
// and points every value at its copy: a decoded column leaves the stream
// it was decoded from.
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
