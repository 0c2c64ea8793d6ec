// Package rawfile is the substrate every raw-data input plugin sits on: one
// File type that owns a file's ingested bytes, the positional map built over
// them — the byte offset of each record and of every top-level field within
// it (the "skeleton" of the file, §3.1 of the paper) — and the freshness
// lifecycle that decides whether that parsed view is still current and how
// to grow it. The map is built where the bytes come in, so every scan runs
// through it. What differs between formats (internal/csvio, internal/jsonio)
// is plugged in through the Format interface: how a stretch of bytes is
// mapped, and how one mapped record is decoded and tested.
package rawfile

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"recache/internal/expr"
	"recache/internal/freshness"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// Format is the per-format half of a raw-file provider. Implementations are
// stateless beyond their schema and options, and safe for concurrent use.
//
// Every record is described by its start offset and one uint32 per top-level
// schema field: the offset of that field's bytes relative to the start (a
// format may reserve a sentinel for "no value"; File never interprets them).
type Format interface {
	// Map appends the positional map of the records of data from offset from
	// on — 0, or the end of a mapped prefix that ends a record — to recStart
	// and fieldOff and returns the grown slices. It fails on the first record
	// a scan must reject; the caller then discards both.
	Map(data []byte, from int, recStart []int64, fieldOff []uint32) ([]int64, []uint32, error)
	// Decode materializes fields of the record at start from its offsets.
	// With rest false it fills the masked fields (nil = all) and nulls the
	// others; with rest true it fills exactly the fields mask skipped and
	// leaves the others alone.
	Decode(data []byte, start int, offs []uint32, mask []bool, rest bool, row []value.Value) error
	// AppendColumns appends the record at start to dst, one vector per leaf
	// column (nil skips a leaf), and its list length to lengths when the
	// schema has a repeated field, typed and straight from the raw bytes:
	// the values, nulls and errors of Decode with a nil mask (see
	// plan.Source). After an error dst and lengths are inconsistent.
	AppendColumns(data []byte, start int, offs []uint32, dst []*store.Vec, lengths []int32) ([]int32, error)
	// Test decodes each tested column of the record typed, straight from
	// its raw bytes, and reports whether every test passes; null or absent
	// values fail, a malformed value is the error Decode would raise.
	Test(data []byte, start int, offs []uint32, tests []expr.ColTest) (bool, error)
	// Needles returns the byte patterns of which at least one occurs in
	// every record that has a string field equal to lit.
	Needles(lit []byte) [][]byte
}

// snapshot is one immutable view of the file: its ingested bytes, the
// positional map of every record in them, the epoch those byte offsets
// belong to, and the fingerprint that detects divergence from disk.
// Snapshots are published through an atomic pointer and never mutated after
// publication, with one deliberate exception: an append-extension may grow
// the data / recStart / fieldOff backing arrays *beyond the published
// lengths* in place. Readers slice by the lengths captured in their own
// snapshot, so writes past those lengths are invisible to them — the classic
// append-only-log trick, giving lock-free readers across extensions.
type snapshot struct {
	data     []byte
	recStart []int64
	fieldOff []uint32 // nrecs × ntop, offsets relative to recStart
	loaded   bool     // data was read from disk (false after a rewrite reset)
	epoch    uint64   // bumps on every rewrite; byte offsets are per-epoch
	fp       freshness.Fingerprint
}

var _ plan.Source = (*File)(nil)

// File implements plan.Source for one raw file in a given Format: it is the
// one production source.
//
// Files are safe for concurrent scans: all shared state lives in an
// immutable snapshot behind an atomic pointer, and mu serializes the writers
// — the load that reads and maps the file, and Refresh — so a file is mapped
// once per snapshot however many cold scans race for it.
type File struct {
	path   string
	schema *value.Type
	format Format
	ntop   int
	size   atomic.Int64

	mu   sync.Mutex // serializes snapshot replacement (load, refresh)
	snap atomic.Pointer[snapshot]

	// scans counts full-file scans (not ScanOffsets replays, nor ScanFrom
	// or cursors over an appended tail); the cold-burst bench and tests use
	// it to assert how many raw parses a burst of concurrent misses paid
	// for. pushScans counts the subset that evaluated a pushdown below
	// parsing, and pushSkipped the records those scans rejected before
	// decoding anything else.
	scans       atomic.Int64
	pushScans   atomic.Int64
	pushSkipped atomic.Int64
}

// New creates a File over path; schema is the record schema whose top-level
// fields format maps. The file is only stat'ed here and read on first use.
func New(path string, schema *value.Type, format Format) (*File, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("rawfile: %w", err)
	}
	f := &File{path: path, schema: schema, format: format, ntop: len(schema.Fields)}
	f.size.Store(st.Size())
	return f, nil
}

// Schema implements plan.ScanProvider.
func (f *File) Schema() *value.Type { return f.schema }

// NumRecords implements plan.ScanProvider: -1 until the file is first read.
func (f *File) NumRecords() int {
	s := f.snap.Load()
	if s == nil || !s.loaded {
		return -1
	}
	return len(s.recStart)
}

// SizeBytes implements plan.ScanProvider.
func (f *File) SizeBytes() int64 { return f.size.Load() }

// Scans returns the number of full-file scans performed so far.
func (f *File) Scans() int64 { return f.scans.Load() }

// PushdownStats reports how many full-file scans evaluated a pushdown below
// parsing and how many records those scans skipped before full decode.
func (f *File) PushdownStats() (scans, skipped int64) {
	return f.pushScans.Load(), f.pushSkipped.Load()
}

// load reads and maps the file exactly once per epoch (double-checked) and
// returns the current snapshot. A file the format rejects is not published:
// every access reports the rejection until a refresh or rewrite fixes it.
func (f *File) load() (*snapshot, error) {
	if s := f.snap.Load(); s != nil && s.loaded {
		return s, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.snap.Load(); s != nil && s.loaded {
		return s, nil
	}
	st, err := os.Stat(f.path)
	if err != nil {
		return nil, fmt.Errorf("rawfile: %w", err)
	}
	b, err := os.ReadFile(f.path)
	if err != nil {
		return nil, fmt.Errorf("rawfile: %w", err)
	}
	recStart, fieldOff, err := mapSegments(f.format, b, f.ntop, segmentCount(len(b)))
	if err != nil {
		return nil, err
	}
	epoch := uint64(1)
	if s := f.snap.Load(); s != nil {
		epoch = s.epoch
	}
	ns := &snapshot{
		data:     b,
		recStart: recStart,
		fieldOff: fieldOff,
		loaded:   true,
		epoch:    epoch,
		fp:       freshness.Capture(b, st.ModTime().UnixNano()),
	}
	f.size.Store(int64(len(b)))
	f.snap.Store(ns)
	return ns, nil
}

// segmentMin is the least a segment of a loaded file's map covers, about
// 1 MiB.
const segmentMin = 1_000_000

// segmentCount is how many segments the map of a file of size bytes is
// built in at once: one per P, each at least segmentMin.
func segmentCount(size int) int { return min(runtime.GOMAXPROCS(0), size/segmentMin) }

// mapSegments builds the positional map Format.Map(data, 0, nil, nil)
// builds, mapping up to k segments at the same time. The cuts between
// segments fall just past newlines, and the segment between cuts c and d
// is mapped as Map(data[:d], c, ...), its offsets absolute. A cut is only a
// guess at a record boundary, so it is checked: a format never reads past
// a record's end, so a segment whose Map succeeds ends on a boundary. Once
// the segment from cut c is the first to fail, c is a proven boundary and
// the rest of the file is mapped serially from it — the serial map and the
// serial first error, byte for byte. Each segment is presized from its
// newline count, and the segments are joined into slices of their exact
// total size.
func mapSegments(format Format, data []byte, ntop, k int) ([]int64, []uint32, error) {
	cuts := []int{0}
	for j := 1; j < k; j++ {
		lo := max(j*len(data)/k, cuts[len(cuts)-1])
		nl := bytes.IndexByte(data[lo:], '\n')
		if nl < 0 || lo+nl+1 == len(data) {
			break
		}
		cuts = append(cuts, lo+nl+1)
	}
	cuts = append(cuts, len(data))
	if len(cuts) == 2 {
		return format.Map(data, 0, nil, nil)
	}
	type segment struct {
		recStart []int64
		fieldOff []uint32
		err      error
	}
	segs := make([]segment, len(cuts)-1)
	var mapped sync.WaitGroup
	mapped.Add(len(segs))
	for i := range segs {
		go func() {
			defer mapped.Done()
			s := &segs[i]
			n := bytes.Count(data[cuts[i]:cuts[i+1]], []byte{'\n'}) + 1
			s.recStart, s.fieldOff, s.err = format.Map(data[:cuts[i+1]], cuts[i], make([]int64, 0, n), make([]uint32, 0, n*ntop))
		}()
	}
	mapped.Wait()
	nrec, nfield := 0, 0
	for _, s := range segs {
		nrec, nfield = nrec+len(s.recStart), nfield+len(s.fieldOff)
	}
	recStart, fieldOff := make([]int64, 0, nrec), make([]uint32, 0, nfield)
	for i, s := range segs {
		if s.err != nil {
			return format.Map(data, cuts[i], recStart, fieldOff)
		}
		recStart, fieldOff = append(recStart, s.recStart...), append(fieldOff, s.fieldOff...)
	}
	return recStart, fieldOff, nil
}

// Version implements plan.RefreshableProvider: the current (epoch, covered
// bytes), loading the file first if needed. On a load failure it reports
// zero coverage under the current epoch — any scan would fail the same way,
// so nothing is built against the bogus version.
func (f *File) Version() (uint64, int64) {
	s, err := f.load()
	if err != nil {
		if s := f.snap.Load(); s != nil {
			return s.epoch, 0
		}
		return 0, 0
	}
	return s.epoch, int64(len(s.data))
}

// Refresh implements plan.RefreshableProvider: re-check the backing file
// against the snapshot's fingerprint and reconcile. Appends extend the
// snapshot in place (same epoch); rewrites reset the File to an unloaded
// snapshot under a new epoch, so the next access reloads lazily.
func (f *File) Refresh() (plan.FreshnessReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.snap.Load()
	if s == nil || !s.loaded {
		var ep uint64
		if s != nil {
			ep = s.epoch
		}
		return plan.FreshnessReport{Status: plan.FileUnchanged, Epoch: ep}, nil
	}
	switch status, _ := s.fp.Check(f.path); status {
	case freshness.Unchanged:
		return s.unchanged(), nil
	case freshness.Appended:
		return f.extendLocked(s), nil
	default:
		return f.resetLocked(s), nil
	}
}

func (s *snapshot) unchanged() plan.FreshnessReport {
	return plan.FreshnessReport{Status: plan.FileUnchanged, Epoch: s.epoch, Covered: int64(len(s.data))}
}

// resetLocked replaces the snapshot with an unloaded one under a new epoch.
func (f *File) resetLocked(s *snapshot) plan.FreshnessReport {
	ns := &snapshot{epoch: s.epoch + 1}
	f.snap.Store(ns)
	if st, err := os.Stat(f.path); err == nil {
		f.size.Store(st.Size())
	}
	return plan.FreshnessReport{Status: plan.FileRewritten, Epoch: ns.epoch}
}

// extendLocked grows the snapshot over the file's new tail: read only the
// bytes past the covered prefix, trim at the last newline (a torn trailing
// line stays uncovered until it completes), map the new complete records
// onto the positional map, and publish a longer snapshot under the same
// epoch. Falls back to a rewrite reset whenever the extension cannot be
// proven equivalent to a fresh load.
func (f *File) extendLocked(s *snapshot) plan.FreshnessReport {
	old := len(s.data)
	if old > 0 && s.data[old-1] != '\n' {
		// The covered prefix ends mid-record: new bytes change the meaning
		// of the last record already served, which no in-place extension
		// can express.
		return f.resetLocked(s)
	}
	fd, err := os.Open(f.path)
	if err != nil {
		return f.resetLocked(s)
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return f.resetLocked(s)
	}
	sz := st.Size()
	if sz < int64(old) {
		return f.resetLocked(s)
	}
	if sz == int64(old) {
		return s.unchanged()
	}
	tail := make([]byte, sz-int64(old))
	if _, err := fd.ReadAt(tail, int64(old)); err != nil {
		return f.resetLocked(s)
	}
	cut := bytes.LastIndexByte(tail, '\n')
	if cut < 0 {
		// The appended bytes hold no complete record yet.
		return s.unchanged()
	}
	tail = tail[:cut+1]

	// Appending may write into spare capacity past the published lengths
	// (invisible to snapshot readers) or reallocate; both are safe.
	data := append(s.data, tail...)
	recStart, fieldOff, err := f.format.Map(data, old, s.recStart, s.fieldOff)
	if err != nil {
		// Malformed appended record: the extension would poison the map, so
		// invalidate wholesale instead.
		return f.resetLocked(s)
	}
	ns := &snapshot{
		data:     data,
		recStart: recStart,
		fieldOff: fieldOff,
		loaded:   true,
		epoch:    s.epoch,
		fp:       freshness.Capture(data, st.ModTime().UnixNano()),
	}
	f.size.Store(sz)
	f.snap.Store(ns)
	return plan.FreshnessReport{
		Status:    plan.FileAppended,
		Epoch:     ns.epoch,
		Covered:   int64(len(data)),
		TailBytes: int64(len(tail)),
	}
}

// neededMask marks the top-level fields covering the needed paths; nil
// means all fields. A path names a field either whole (a flat column, also
// one whose name contains dots) or by its head (a nested reference).
func (f *File) neededMask(needed []value.Path) ([]bool, error) {
	if needed == nil {
		return nil, nil
	}
	mask := make([]bool, f.ntop)
	for _, np := range needed {
		if len(np) == 0 {
			continue
		}
		i, _ := f.schema.FieldIndex(np.String())
		if i < 0 {
			if i, _ = f.schema.FieldIndex(np[0]); i < 0 {
				return nil, fmt.Errorf("rawfile: unknown field %q", np)
			}
		}
		mask[i] = true
	}
	return mask, nil
}

// effectiveMask unions the tested columns into the needed mask: survivors
// have their tested fields materialized too (they are decoded regardless),
// and complete() then parses exactly the complement. A nil mask (all
// fields) stays nil.
func effectiveMask(mask []bool, tests []expr.ColTest) []bool {
	if mask == nil {
		return nil
	}
	eff := append([]bool(nil), mask...)
	for i := range tests {
		if s := tests[i].Slot; s < len(eff) {
			eff[s] = true
		}
	}
	return eff
}

// offs returns the field offsets of mapped record ri.
func (s *snapshot) offs(ri, ntop int) []uint32 { return s.fieldOff[ri*ntop : (ri+1)*ntop] }

// recordAt returns the index of the record whose span contains byte offset
// off (the last record starting at or before it).
func (s *snapshot) recordAt(off int64) int {
	return sort.Search(len(s.recStart), func(i int) bool { return s.recStart[i] > off }) - 1
}

// recordFrom returns the index of the first record starting at or after
// off.
func (s *snapshot) recordFrom(off int64) int {
	return sort.Search(len(s.recStart), func(i int) bool { return s.recStart[i] >= off })
}

// seek is recordFrom for a caller that knows a nearby record, ri: it jumps
// from there by the file's mean record length and walks the remainder, so
// each of a run of sparse ascending offsets costs a step or two rather than
// a walk over the records in between or a binary search of the whole map.
func (s *snapshot) seek(ri int, off int64) int {
	n := len(s.recStart)
	if n == 0 {
		return 0
	}
	ri = min(ri, n-1)
	ri += int(float64(off-s.recStart[ri]) * float64(n) / float64(len(s.data)))
	ri = max(0, min(ri, n-1))
	for ri > 0 && s.recStart[ri-1] >= off {
		ri--
	}
	for ri < n && s.recStart[ri] < off {
		ri++
	}
	return ri
}

// prescan is the candidate filter of a pushdown scan carrying a string-
// equality conjunct: a memchr-style substring search over the raw bytes
// that rejects records which cannot contain the literal before any field is
// decoded. A nil *prescan means no filtering is possible.
type prescan struct {
	cursors []*expr.NeedleCursor
}

func newPrescan(data []byte, needles [][]byte) *prescan {
	if len(needles) == 0 {
		return nil
	}
	p := &prescan{cursors: make([]*expr.NeedleCursor, len(needles))}
	for i, n := range needles {
		p.cursors[i] = expr.NewNeedleCursor(data, n)
	}
	return p
}

// next returns the offset of the first needle occurrence at or after from,
// or len(data) when there is none: no record ending before it can match.
// from must not decrease across calls.
func (p *prescan) next(from int) int {
	m := p.cursors[0].Next(from)
	for _, c := range p.cursors[1:] {
		if e := c.Next(from); e < m {
			m = e
		}
	}
	return m
}

// emitter streams records of one snapshot to a ScanFunc through a reused
// row buffer. The complete callback it hands out is one method value per
// scan, not a closure per record: it parses the fields the mask skipped
// into the row of the record last emitted, in place, and is only valid
// until the next record.
type emitter struct {
	format   Format
	data     []byte
	mask     []bool
	rec      value.Value
	fn       plan.ScanFunc
	complete func() error
	start    int
	offs     []uint32
}

func (f *File) newEmitter(s *snapshot, mask []bool, fn plan.ScanFunc) *emitter {
	e := &emitter{
		format:   f.format,
		data:     s.data,
		mask:     mask,
		rec:      value.Value{Kind: value.Record, L: make([]value.Value, f.ntop)},
		fn:       fn,
		complete: noComplete,
	}
	if mask != nil {
		e.complete = e.completeRest
	}
	return e
}

// noComplete is the completion callback of records decoded whole.
func noComplete() error { return nil }

func (e *emitter) completeRest() error {
	return e.format.Decode(e.data, e.start, e.offs, e.mask, true, e.rec.L)
}

func (e *emitter) emit(start int, offs []uint32) error {
	if err := e.format.Decode(e.data, start, offs, e.mask, false, e.rec.L); err != nil {
		return err
	}
	e.start, e.offs = start, offs
	return e.fn(e.rec, int64(start), e.complete)
}

// Scan implements plan.ScanProvider: every record through the positional
// map, parsing only the needed fields — a pushdown scan that pushes
// nothing. The complete callback handed to fn parses the skipped fields in
// place.
func (f *File) Scan(needed []value.Path, fn plan.ScanFunc) error {
	_, err := f.ScanPushdown(nil, needed, fn)
	return err
}

// scanMapped streams the mapped records from index lo on.
func (f *File) scanMapped(s *snapshot, lo int, mask []bool, fn plan.ScanFunc) error {
	e := f.newEmitter(s, mask, fn)
	for ri := lo; ri < len(s.recStart); ri++ {
		if err := e.emit(int(s.recStart[ri]), s.offs(ri, f.ntop)); err != nil {
			return err
		}
	}
	return nil
}

// ScanPushdown implements plan.PushdownScanner: it streams only the records
// passing pd, as the pushdown cursor finds them, a chunk at a time. Each
// survivor decodes its needed ∪ tested fields; complete() parses the rest
// on demand, exactly like Scan.
func (f *File) ScanPushdown(pd *expr.Pushdown, needed []value.Path, fn plan.ScanFunc) (int64, error) {
	mask, err := f.neededMask(needed)
	if err != nil {
		return 0, err
	}
	c, err := f.openCursor(0, pd)
	if err != nil {
		return 0, err
	}
	e := f.newEmitter(c.s, effectiveMask(mask, c.tests), fn)
	for {
		if err := c.next(store.BatchRows); err != nil || len(c.recs) == 0 {
			return c.skipped, err
		}
		for _, ri := range c.recs {
			if err := e.emit(int(c.s.recStart[ri]), c.s.offs(int(ri), f.ntop)); err != nil {
				return c.skipped, err
			}
		}
	}
}

// PushdownCursor implements plan.Source: the records from byte from on
// passing pd as a cursor of byte offsets, pinned to epoch.
func (f *File) PushdownCursor(epoch uint64, from int64, pd *expr.Pushdown) (plan.OffsetCursor, error) {
	c, err := f.openCursor(from, pd)
	if err != nil {
		return nil, err
	}
	if c.s.epoch != epoch {
		return nil, plan.ErrEpochChanged
	}
	return func(dst []int64, n int) ([]int64, int64, error) {
		if s := f.snap.Load(); s.epoch != epoch {
			return dst, c.skipped, plan.ErrEpochChanged
		}
		err := c.next(n)
		for _, ri := range c.recs {
			dst = append(dst, c.s.recStart[ri])
		}
		return dst, c.skipped, err
	}, nil
}

// cursor is the one pushdown loop: a resumable walk of one snapshot's
// positional map that decodes each tested column straight from its raw
// bytes (no value boxing) and skips the rest of a record as soon as a test
// fails. When the pushdown carries a string-equality conjunct, a prescan
// rejects records that cannot contain the literal before any field is
// decoded, bulk-skipping the stretch between matches.
type cursor struct {
	f       *File
	s       *snapshot
	tests   []expr.ColTest
	pre     *prescan
	ri      int     // the next record to test
	recs    []int32 // the passing records next found
	skipped int64
	counted bool // a full-file scan, counted in the File's scan counters
}

// openCursor starts a scan filtered by pd of the records from byte from on.
func (f *File) openCursor(from int64, pd *expr.Pushdown) (*cursor, error) {
	if from == 0 {
		f.scans.Add(1)
	}
	s, err := f.load()
	if err != nil {
		return nil, err
	}
	c := &cursor{f: f, s: s, tests: pd.Tests(), recs: make([]int32, 0, store.BatchRows),
		ri: s.recordFrom(from), counted: from == 0}
	if c.counted && len(c.tests) > 0 {
		f.pushScans.Add(1)
	}
	if lit := pd.EqNeedle(); lit != nil {
		c.pre = newPrescan(s.data, f.format.Needles(lit))
	}
	return c, nil
}

// next replaces recs by the next up to n passing records.
func (c *cursor) next(n int) error {
	s, f, tests := c.s, c.f, c.tests
	nrec := len(s.recStart)
	recs, ri, skipped := c.recs[:0], c.ri, int64(0)
	var err error
	for ; ri < nrec && len(recs) < n; ri++ {
		if c.pre != nil {
			// Jump to the next record that can contain the equality
			// literal, bulk-counting the records in between as skipped.
			m := c.pre.next(int(s.recStart[ri]))
			if m == len(s.data) {
				skipped += int64(nrec - ri)
				ri = nrec
				break
			}
			if rj := s.recordAt(int64(m)); rj > ri {
				skipped += int64(rj - ri)
				ri = rj
			}
		}
		if len(tests) > 0 {
			ok, terr := f.format.Test(s.data, int(s.recStart[ri]), s.offs(ri, f.ntop), tests)
			if terr != nil {
				err = terr
				break
			}
			if !ok {
				skipped++
				continue
			}
		}
		recs = append(recs, int32(ri))
	}
	c.recs, c.ri, c.skipped = recs, ri, c.skipped+skipped
	if c.counted {
		f.pushSkipped.Add(skipped)
	}
	return err
}

// ScanOffsets implements plan.ScanProvider: random access through the
// positional map, the access path of lazy (offsets-only) caches.
func (f *File) ScanOffsets(offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	s, err := f.load()
	if err != nil {
		return err
	}
	return f.scanOffsets(s, offsets, needed, fn)
}

// ScanOffsetsAt implements plan.Source: ScanOffsets pinned to a file
// epoch. If the file was rewritten since the offsets were recorded, the
// positions are meaningless in the new bytes — fail with ErrEpochChanged
// instead of dereferencing them.
func (f *File) ScanOffsetsAt(epoch uint64, offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	s, err := f.load()
	if err != nil {
		return err
	}
	if s.epoch != epoch {
		return plan.ErrEpochChanged
	}
	return f.scanOffsets(s, offsets, needed, fn)
}

func (f *File) scanOffsets(s *snapshot, offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	mask, err := f.neededMask(needed)
	if err != nil {
		return err
	}
	e := f.newEmitter(s, mask, fn)
	return f.eachOffset(s, offsets, e.emit)
}

// eachOffset calls fn with the position and field offsets of the record
// starting at each of offsets, from the positional map; an offset at which
// no record starts is an error.
func (f *File) eachOffset(s *snapshot, offsets []int64, fn func(start int, offs []uint32) error) error {
	ri, n := 0, len(s.recStart)
	for _, off := range offsets {
		ri = s.seek(ri, off)
		if ri == n || s.recStart[ri] != off {
			return fmt.Errorf("rawfile: no record starts at offset %d", off)
		}
		if err := fn(int(off), s.offs(ri, f.ntop)); err != nil {
			return err
		}
	}
	return nil
}

// AppendColumns implements plan.Source: the records at offsets,
// decoded by the format's typed kernel straight into dst and lengths.
func (f *File) AppendColumns(epoch uint64, offsets []int64, dst []*store.Vec, lengths []int32) ([]int32, error) {
	s, err := f.load()
	if err != nil {
		return lengths, err
	}
	if s.epoch != epoch {
		return lengths, plan.ErrEpochChanged
	}
	cols, err := value.LeafColumnsCached(f.schema)
	if err != nil {
		return lengths, err
	}
	if len(dst) != len(cols) {
		return lengths, fmt.Errorf("rawfile: %d column vectors for %d leaf columns", len(dst), len(cols))
	}
	err = f.eachOffset(s, offsets, func(start int, offs []uint32) (err error) {
		lengths, err = f.format.AppendColumns(s.data, start, offs, dst, lengths)
		return err
	})
	return lengths, err
}

// ScanFrom implements plan.RefreshableProvider: stream the records whose
// byte offset is >= from, in file order, decoded whole. The cache reads an
// appended tail through PushdownCursor and AppendColumns instead; ScanFrom
// is the record-at-a-time tail read the benchmark's probes time.
func (f *File) ScanFrom(from int64, needed []value.Path, fn plan.ScanFunc) error {
	s, err := f.load()
	if err != nil {
		return err
	}
	mask, err := f.neededMask(needed)
	if err != nil {
		return err
	}
	return f.scanMapped(s, s.recordFrom(from), mask, fn)
}
