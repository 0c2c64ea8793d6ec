// Package wire defines the recached client/server protocol: length-prefixed
// binary frames carrying pipelined, id-matched requests and responses.
//
// Framing. Every message is one frame: a uint32 little-endian payload
// length followed by that many payload bytes. Frames are independent, so a
// connection can carry any number of in-flight requests; responses are
// matched to requests by the id both sides echo, not by arrival order.
//
// Request payload:  op u8 | id u64 | op-specific body
// Response payload: status u8 (0 ok, 1 error) | id u64 | op u8 | body
//
// Variable-length fields are u32-length-prefixed byte strings. Query
// results travel as columnar batches: the result's record schema (encoded
// structurally, see encType) plus an RCS1 stream (internal/store's spill
// serialization) of the result rows in the Parquet layout — the same bytes
// a disk spill would hold, so neither side boxes rows to cross the socket.
//
// Robustness. Decoding is defensive: every length read from the stream is
// validated against the bytes actually present before any allocation is
// sized from it, so truncated frames, oversized lengths, and garbage bytes
// produce errors — never a panic, and never an allocation larger than the
// frame itself (ReadFrame additionally caps whole frames at max bytes).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"recache/internal/cache"
	"recache/internal/value"
)

// MaxFrame is the default frame-size cap: large enough for any result
// batch the harness produces, small enough that a garbage length prefix
// cannot make a reader allocate without bound.
const MaxFrame = 64 << 20

const (
	maxFields = 4096 // schema width cap (record fields, result columns)
	maxDepth  = 32   // schema nesting cap
)

// Op identifies a request kind; responses echo the op they answer.
type Op byte

// The protocol's request kinds.
const (
	OpPing Op = iota + 1
	OpQuery
	OpExplain
	OpStats
	OpTables
	OpSchema
	OpTableStats
	OpEntries
	OpRegisterCSV
	OpRegisterJSON
	// Fleet ops (sharded tier). OpFleet returns the daemon's fleet topology
	// so a client dialing any one shard can discover the rest. The lease
	// ops implement fleet-wide single-flight: a shard missing on a cache
	// key it does not own asks the key's owner for a short-TTL
	// materialization lease before building (see internal/shard).
	OpFleet
	OpLeaseAcquire
	OpLeaseRelease
	// Resilience ops. OpReplicate pushes one cache entry's RCS1 payload to
	// the shard next in the key's rendezvous order (replica placement, and
	// the drain handoff); the receiver admits it as a disk-tier entry.
	// OpLeave announces a member's graceful departure so survivors drop it
	// from their topology before its socket goes away.
	OpReplicate
	OpLeave
	opMax
)

// String names the op for errors and logs.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpQuery:
		return "query"
	case OpExplain:
		return "explain"
	case OpStats:
		return "stats"
	case OpTables:
		return "tables"
	case OpSchema:
		return "schema"
	case OpTableStats:
		return "table-stats"
	case OpEntries:
		return "entries"
	case OpRegisterCSV:
		return "register-csv"
	case OpRegisterJSON:
		return "register-json"
	case OpFleet:
		return "fleet"
	case OpLeaseAcquire:
		return "lease-acquire"
	case OpLeaseRelease:
		return "lease-release"
	case OpReplicate:
		return "replicate"
	case OpLeave:
		return "leave"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Request is one client→server message.
type Request struct {
	ID uint64
	Op Op

	SQL    string // OpQuery, OpExplain
	Name   string // OpSchema, OpTableStats, OpRegister*
	Path   string // OpRegister*
	Schema string // OpRegister* (schema DSL; empty infers for CSV)
	Delim  byte   // OpRegisterCSV

	// Lease ops: the cache key being leased (shard.Key form), the
	// requesting process's holder token, and the requested TTL
	// (OpLeaseAcquire only; the server clamps it to shard.MaxTTL).
	Key       string // OpLeaseAcquire, OpLeaseRelease
	Holder    uint64 // OpLeaseAcquire, OpLeaseRelease
	TTLMillis uint32 // OpLeaseAcquire

	// OpReplicate: the entry's dataset name travels in Name, its canonical
	// predicate in Pred, and its RCS1-serialized payload in Payload.
	// OpLeave: the departing member's shard id in ShardID.
	Pred    string
	Payload []byte
	ShardID int32
}

// Result is a query result as it crosses the wire: column names, the
// result-record schema, and the rows as an RCS1-serialized Parquet-layout
// store (decode with store.ReadParquetBytes against Schema).
type Result struct {
	Columns   []string
	Schema    *value.Type
	Batch     []byte
	WallNanos int64
	NumRows   int64
}

// TableStats carries one table's provider-level raw-scan counters
// (the raw-scan and pushdown bench metrics, observable over the wire).
type TableStats struct {
	RawScans     int64
	PushScans    int64
	SkippedEarly int64
}

// Response is one server→client message. Exactly one of the body fields is
// set, selected by Op; a non-empty Err means the request failed and no
// body is present.
type Response struct {
	ID  uint64
	Op  Op
	Err string

	Result      *Result     // OpQuery
	Text        string      // OpExplain, OpSchema
	Tables      []string    // OpTables
	StatsJSON   []byte      // OpStats: JSON-encoded Stats
	EntriesJSON []byte      // OpEntries: JSON-encoded []Entry
	TableStats  *TableStats // OpTableStats
	Fleet       *Fleet      // OpFleet
	Lease       *Lease      // OpLeaseAcquire
}

// FleetShard is one member of an OpFleet topology response.
type FleetShard struct {
	ID   int32
	Addr string
}

// Fleet is the OpFleet payload: the fleet list (same order on every
// member) and the answering daemon's own position in it.
type Fleet struct {
	Self   int32
	Shards []FleetShard
}

// Lease is the OpLeaseAcquire payload: whether the materialization lease
// was granted and when the granted (or, on denial, the blocking) lease
// expires.
type Lease struct {
	Granted          bool
	ExpiresUnixMicro int64
}

// Stats is the OpStats payload: the engine's cache counters plus the
// daemon's serving counters. It travels as JSON inside the binary frame so
// counter additions never break older clients.
type Stats struct {
	Cache  cache.Stats `json:"cache"`
	Server ServerStats `json:"server"`
}

// ServerStats counts the daemon's serving activity.
type ServerStats struct {
	// Sessions counts connections accepted since start; ActiveSessions the
	// ones currently open.
	Sessions       int64 `json:"sessions"`
	ActiveSessions int64 `json:"active_sessions"`
	// Requests counts requests read; InFlight the ones currently executing.
	Requests int64 `json:"requests"`
	InFlight int64 `json:"in_flight"`
	// Errors counts requests answered with an error response.
	Errors int64 `json:"errors"`
	// BatchResults counts query results the engine's plan root handed over
	// as column batches (the fast exit of cached projections); RowResults
	// the ones emitted row by row (aggregates, misses, empty results).
	BatchResults int64 `json:"batch_results"`
	RowResults   int64 `json:"row_results"`
	// Draining reports a shutdown in progress (finishing in-flight work).
	Draining bool `json:"draining"`
}

// Entry mirrors recache.EntryInfo for the OpEntries payload.
type Entry struct {
	ID        uint64 `json:"id"`
	Table     string `json:"table"`
	Predicate string `json:"predicate"`
	Mode      string `json:"mode"`
	Layout    string `json:"layout"`
	Bytes     int64  `json:"bytes"`
	Reuses    int64  `json:"reuses"`
}

// ErrFrameTooLarge reports a frame whose declared length exceeds the cap.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ReadFrame reads one frame payload. The declared length is validated
// against max before the payload buffer is allocated, so a corrupt or
// hostile length prefix cannot trigger an oversized allocation.
func ReadFrame(r io.Reader, max uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, errors.New("wire: empty frame")
	}
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return payload, nil
}

// ReadFrameInto is ReadFrame with a caller-owned scratch buffer: the
// returned payload aliases buf when it fits. Only safe when the payload
// does not outlive the next read — ParseRequest copies every field out, so
// a server read loop qualifies; a client must not use this (Result.Batch
// aliases the payload).
func ReadFrameInto(r io.Reader, max uint32, buf []byte) (payload, scratch []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, buf, errors.New("wire: empty frame")
	}
	if n > max {
		return nil, buf, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, buf, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return payload, buf, nil
}

// --- encoding ---

// enc builds one frame: the payload grows in b after a 4-byte length
// placeholder; finish backpatches the prefix.
type enc struct{ b []byte }

// framePool recycles encoded frame buffers. Both peers build one frame per
// message and drop it the moment it is copied into the connection's bufio
// writer, so without reuse the encoder is a steady allocator (and its
// append-growth a steady copier) on the hot path. Callers hand frames back
// with RecycleFrame once the bytes are consumed.
var framePool sync.Pool // *[]byte

func newEnc() *enc {
	if p, ok := framePool.Get().(*[]byte); ok {
		return &enc{b: (*p)[:4]}
	}
	return &enc{b: make([]byte, 4, 512)}
}

// RecycleFrame returns a frame produced by EncodeRequest or EncodeResponse
// to the encoder pool. The caller must be completely done with the bytes.
// Oversized frames (a large result batch) are dropped, not pinned.
func RecycleFrame(frame []byte) {
	if cap(frame) < 4 || cap(frame) > 1<<16 {
		return
	}
	framePool.Put(&frame)
}

func (e *enc) u8(x byte) { e.b = append(e.b, x) }

func (e *enc) u32(x uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, x)
}

func (e *enc) u64(x uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, x)
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) blob(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// finish backpatches the length prefix and returns the full frame.
func (e *enc) finish() ([]byte, error) {
	n := len(e.b) - 4
	if n <= 0 {
		return nil, errors.New("wire: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(e.b[:4], uint32(n))
	return e.b, nil
}

// EncodeRequest serializes req as one complete frame (prefix included).
func EncodeRequest(req *Request) ([]byte, error) {
	e := newEnc()
	e.u8(byte(req.Op))
	e.u64(req.ID)
	switch req.Op {
	case OpPing, OpStats, OpTables, OpEntries, OpFleet:
	case OpQuery, OpExplain:
		e.str(req.SQL)
	case OpSchema, OpTableStats:
		e.str(req.Name)
	case OpRegisterCSV:
		e.str(req.Name)
		e.str(req.Path)
		e.str(req.Schema)
		e.u8(req.Delim)
	case OpRegisterJSON:
		e.str(req.Name)
		e.str(req.Path)
		e.str(req.Schema)
	case OpLeaseAcquire:
		e.str(req.Key)
		e.u64(req.Holder)
		e.u32(req.TTLMillis)
	case OpLeaseRelease:
		e.str(req.Key)
		e.u64(req.Holder)
	case OpReplicate:
		e.str(req.Name)
		e.str(req.Pred)
		e.blob(req.Payload)
	case OpLeave:
		e.u32(uint32(req.ShardID))
	default:
		return nil, fmt.Errorf("wire: encode request: unknown op %s", req.Op)
	}
	return e.finish()
}

// EncodeResponse serializes resp as one complete frame (prefix included).
// Responses that cannot fit the frame cap (a result batch past MaxFrame)
// return ErrFrameTooLarge; the server downgrades those to error responses.
func EncodeResponse(resp *Response) ([]byte, error) {
	e := newEnc()
	status := byte(0)
	if resp.Err != "" {
		status = 1
	}
	e.u8(status)
	e.u64(resp.ID)
	e.u8(byte(resp.Op))
	if status == 1 {
		e.str(resp.Err)
		return e.finish()
	}
	switch resp.Op {
	case OpPing, OpRegisterCSV, OpRegisterJSON, OpLeaseRelease, OpReplicate, OpLeave:
	case OpQuery:
		r := resp.Result
		if r == nil {
			return nil, errors.New("wire: encode response: query result missing")
		}
		if len(r.Columns) > maxFields {
			return nil, fmt.Errorf("wire: encode response: %d result columns exceeds cap %d", len(r.Columns), maxFields)
		}
		e.u64(uint64(r.WallNanos))
		e.u64(uint64(r.NumRows))
		e.u32(uint32(len(r.Columns)))
		for _, c := range r.Columns {
			e.str(c)
		}
		if err := encType(e, r.Schema, 0); err != nil {
			return nil, err
		}
		e.blob(r.Batch)
	case OpExplain, OpSchema:
		e.str(resp.Text)
	case OpTables:
		if len(resp.Tables) > maxFields {
			return nil, fmt.Errorf("wire: encode response: %d tables exceeds cap %d", len(resp.Tables), maxFields)
		}
		e.u32(uint32(len(resp.Tables)))
		for _, t := range resp.Tables {
			e.str(t)
		}
	case OpStats:
		e.blob(resp.StatsJSON)
	case OpEntries:
		e.blob(resp.EntriesJSON)
	case OpTableStats:
		ts := resp.TableStats
		if ts == nil {
			return nil, errors.New("wire: encode response: table stats missing")
		}
		e.u64(uint64(ts.RawScans))
		e.u64(uint64(ts.PushScans))
		e.u64(uint64(ts.SkippedEarly))
	case OpFleet:
		f := resp.Fleet
		if f == nil {
			return nil, errors.New("wire: encode response: fleet missing")
		}
		if len(f.Shards) > maxFields {
			return nil, fmt.Errorf("wire: encode response: %d shards exceeds cap %d", len(f.Shards), maxFields)
		}
		e.u32(uint32(f.Self))
		e.u32(uint32(len(f.Shards)))
		for _, s := range f.Shards {
			e.u32(uint32(s.ID))
			e.str(s.Addr)
		}
	case OpLeaseAcquire:
		l := resp.Lease
		if l == nil {
			return nil, errors.New("wire: encode response: lease missing")
		}
		g := byte(0)
		if l.Granted {
			g = 1
		}
		e.u8(g)
		e.u64(uint64(l.ExpiresUnixMicro))
	default:
		return nil, fmt.Errorf("wire: encode response: unknown op %s", resp.Op)
	}
	return e.finish()
}

// encType writes a value.Type structurally: kind byte, then the element
// type (lists) or the field list (records). Primitives are a single byte.
func encType(e *enc, t *value.Type, depth int) error {
	if t == nil {
		return errors.New("wire: encode type: nil type")
	}
	if depth > maxDepth {
		return fmt.Errorf("wire: encode type: nesting exceeds %d", maxDepth)
	}
	e.u8(byte(t.Kind))
	switch t.Kind {
	case value.Bool, value.Int, value.Float, value.String:
		return nil
	case value.List:
		return encType(e, t.Elem, depth+1)
	case value.Record:
		if len(t.Fields) > maxFields {
			return fmt.Errorf("wire: encode type: %d fields exceeds cap %d", len(t.Fields), maxFields)
		}
		e.u32(uint32(len(t.Fields)))
		for _, f := range t.Fields {
			e.str(f.Name)
			opt := byte(0)
			if f.Optional {
				opt = 1
			}
			e.u8(opt)
			if err := encType(e, f.Type, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("wire: encode type: unsupported kind %s", t.Kind)
}

// --- decoding ---

// dec consumes one frame payload with bounds-checked reads.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) take(n int) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, fmt.Errorf("wire: payload truncated at offset %d (need %d bytes, have %d)", d.off, n, d.remaining())
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p, nil
}

func (d *dec) u8() (byte, error) {
	p, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (d *dec) u32() (uint32, error) {
	p, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (d *dec) u64() (uint64, error) {
	p, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

// str reads a length-prefixed string. The length is checked against the
// remaining payload before the string is materialized.
func (d *dec) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	p, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// blob reads a length-prefixed byte string; the result aliases the payload.
func (d *dec) blob() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	return d.take(int(n))
}

// done rejects trailing garbage after a fully parsed message.
func (d *dec) done() error {
	if d.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes in payload", d.remaining())
	}
	return nil
}

// count reads a u32 element count and validates it against the smallest
// possible per-element encoding, so a corrupt count cannot size a huge
// allocation from a short payload.
func (d *dec) count(perElem int, cap int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if int(n) > cap {
		return 0, fmt.Errorf("wire: element count %d exceeds cap %d", n, cap)
	}
	if int(n)*perElem > d.remaining() {
		return 0, fmt.Errorf("wire: element count %d exceeds payload (%d bytes left)", n, d.remaining())
	}
	return int(n), nil
}

// ParseRequest decodes one request payload (the bytes ReadFrame returned).
func ParseRequest(payload []byte) (*Request, error) {
	d := &dec{b: payload}
	op, err := d.u8()
	if err != nil {
		return nil, err
	}
	if op == 0 || Op(op) >= opMax {
		return nil, fmt.Errorf("wire: unknown request op %d", op)
	}
	req := &Request{Op: Op(op)}
	if req.ID, err = d.u64(); err != nil {
		return nil, err
	}
	switch req.Op {
	case OpPing, OpStats, OpTables, OpEntries, OpFleet:
	case OpQuery, OpExplain:
		if req.SQL, err = d.str(); err != nil {
			return nil, err
		}
	case OpSchema, OpTableStats:
		if req.Name, err = d.str(); err != nil {
			return nil, err
		}
	case OpRegisterCSV, OpRegisterJSON:
		if req.Name, err = d.str(); err != nil {
			return nil, err
		}
		if req.Path, err = d.str(); err != nil {
			return nil, err
		}
		if req.Schema, err = d.str(); err != nil {
			return nil, err
		}
		if req.Op == OpRegisterCSV {
			if req.Delim, err = d.u8(); err != nil {
				return nil, err
			}
		}
	case OpLeaseAcquire, OpLeaseRelease:
		if req.Key, err = d.str(); err != nil {
			return nil, err
		}
		if req.Holder, err = d.u64(); err != nil {
			return nil, err
		}
		if req.Op == OpLeaseAcquire {
			if req.TTLMillis, err = d.u32(); err != nil {
				return nil, err
			}
		}
	case OpReplicate:
		if req.Name, err = d.str(); err != nil {
			return nil, err
		}
		if req.Pred, err = d.str(); err != nil {
			return nil, err
		}
		b, err := d.blob()
		if err != nil {
			return nil, err
		}
		// Copy: the server parses requests out of a reused read buffer, and
		// the replica admission outlives the next frame.
		req.Payload = append([]byte(nil), b...)
	case OpLeave:
		id, err := d.u32()
		if err != nil {
			return nil, err
		}
		req.ShardID = int32(id)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseResponse decodes one response payload. Byte-slice fields (Batch,
// StatsJSON, EntriesJSON) alias the payload buffer.
// ResponseID extracts the request id from a response payload without
// parsing anything else: the client's demux loop routes frames on it and
// leaves full parsing to whichever caller claims the response.
func ResponseID(payload []byte) (uint64, error) {
	if len(payload) < 10 {
		return 0, errors.New("wire: response payload too short")
	}
	return binary.LittleEndian.Uint64(payload[1:9]), nil
}

// ResponseHeader is the scalar prefix of a response: everything a caller
// that does not materialize rows needs from a query result.
type ResponseHeader struct {
	ID        uint64
	Op        Op
	Err       string
	WallNanos int64
	NumRows   int64
}

// ParseResponseHeader decodes only the header of a response payload — for
// OpQuery it stops before the column names, schema, and batch bytes, so a
// row-discarding caller pays no decode allocations at all. The returned
// Err string is copied; nothing aliases the payload.
func ParseResponseHeader(payload []byte) (ResponseHeader, error) {
	d := &dec{b: payload}
	var h ResponseHeader
	status, err := d.u8()
	if err != nil {
		return h, err
	}
	if status > 1 {
		return h, fmt.Errorf("wire: unknown response status %d", status)
	}
	if h.ID, err = d.u64(); err != nil {
		return h, err
	}
	op, err := d.u8()
	if err != nil {
		return h, err
	}
	if op == 0 || Op(op) >= opMax {
		return h, fmt.Errorf("wire: unknown response op %d", op)
	}
	h.Op = Op(op)
	if status == 1 {
		if h.Err, err = d.str(); err != nil {
			return h, err
		}
		if h.Err == "" {
			return h, errors.New("wire: error response with empty message")
		}
		return h, nil
	}
	if h.Op == OpQuery {
		wall, err := d.u64()
		if err != nil {
			return h, err
		}
		h.WallNanos = int64(wall)
		rows, err := d.u64()
		if err != nil {
			return h, err
		}
		h.NumRows = int64(rows)
	}
	return h, nil
}

func ParseResponse(payload []byte) (*Response, error) {
	d := &dec{b: payload}
	status, err := d.u8()
	if err != nil {
		return nil, err
	}
	if status > 1 {
		return nil, fmt.Errorf("wire: unknown response status %d", status)
	}
	resp := &Response{}
	if resp.ID, err = d.u64(); err != nil {
		return nil, err
	}
	op, err := d.u8()
	if err != nil {
		return nil, err
	}
	if op == 0 || Op(op) >= opMax {
		return nil, fmt.Errorf("wire: unknown response op %d", op)
	}
	resp.Op = Op(op)
	if status == 1 {
		if resp.Err, err = d.str(); err != nil {
			return nil, err
		}
		if resp.Err == "" {
			return nil, errors.New("wire: error response with empty message")
		}
		return resp, d.done()
	}
	switch resp.Op {
	case OpPing, OpRegisterCSV, OpRegisterJSON, OpLeaseRelease, OpReplicate, OpLeave:
	case OpQuery:
		r := &Result{}
		wall, err := d.u64()
		if err != nil {
			return nil, err
		}
		r.WallNanos = int64(wall)
		rows, err := d.u64()
		if err != nil {
			return nil, err
		}
		r.NumRows = int64(rows)
		ncols, err := d.count(4, maxFields)
		if err != nil {
			return nil, err
		}
		r.Columns = make([]string, ncols)
		for i := range r.Columns {
			if r.Columns[i], err = d.str(); err != nil {
				return nil, err
			}
		}
		tstart := d.off
		if r.Schema, err = decType(d, 0); err != nil {
			return nil, err
		}
		r.Schema = internType(d.b[tstart:d.off], r.Schema)
		if r.Batch, err = d.blob(); err != nil {
			return nil, err
		}
		resp.Result = r
	case OpExplain, OpSchema:
		if resp.Text, err = d.str(); err != nil {
			return nil, err
		}
	case OpTables:
		n, err := d.count(4, maxFields)
		if err != nil {
			return nil, err
		}
		resp.Tables = make([]string, n)
		for i := range resp.Tables {
			if resp.Tables[i], err = d.str(); err != nil {
				return nil, err
			}
		}
	case OpStats:
		if resp.StatsJSON, err = d.blob(); err != nil {
			return nil, err
		}
	case OpEntries:
		if resp.EntriesJSON, err = d.blob(); err != nil {
			return nil, err
		}
	case OpTableStats:
		ts := &TableStats{}
		for _, dst := range []*int64{&ts.RawScans, &ts.PushScans, &ts.SkippedEarly} {
			x, err := d.u64()
			if err != nil {
				return nil, err
			}
			*dst = int64(x)
		}
		resp.TableStats = ts
	case OpFleet:
		f := &Fleet{}
		self, err := d.u32()
		if err != nil {
			return nil, err
		}
		f.Self = int32(self)
		// A shard entry costs at least 8 bytes (id + addr length).
		n, err := d.count(8, maxFields)
		if err != nil {
			return nil, err
		}
		f.Shards = make([]FleetShard, n)
		for i := range f.Shards {
			id, err := d.u32()
			if err != nil {
				return nil, err
			}
			f.Shards[i].ID = int32(id)
			if f.Shards[i].Addr, err = d.str(); err != nil {
				return nil, err
			}
		}
		resp.Fleet = f
	case OpLeaseAcquire:
		l := &Lease{}
		g, err := d.u8()
		if err != nil {
			return nil, err
		}
		l.Granted = g == 1
		exp, err := d.u64()
		if err != nil {
			return nil, err
		}
		l.ExpiresUnixMicro = int64(exp)
		resp.Lease = l
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return resp, nil
}

// typeInterner deduplicates decoded result schemas by their encoded bytes:
// a client replaying queries sees the same schema in every response, and
// handing back one shared *value.Type (immutable once built) lets decode
// layers cache per-schema work by pointer. Bounded by wholesale reset so a
// peer sending endless distinct schemas cannot grow it without limit.
var typeInterner sync.Map // string (encoded type) -> *value.Type

var typeInternerLen atomic.Int64

const typeInternerCap = 1024

func internType(enc []byte, t *value.Type) *value.Type {
	if got, ok := typeInterner.Load(string(enc)); ok {
		return got.(*value.Type)
	}
	if typeInternerLen.Add(1) > typeInternerCap {
		typeInterner.Clear()
		typeInternerLen.Store(1)
	}
	typeInterner.Store(string(enc), t)
	return t
}

// decType decodes a value.Type, enforcing the depth and width caps. Every
// field count is validated against the remaining payload (a field costs at
// least 6 bytes: name length, optional flag, kind) before allocation.
func decType(d *dec, depth int) (*value.Type, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("wire: type nesting exceeds %d", maxDepth)
	}
	k, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch value.Kind(k) {
	case value.Bool:
		return value.TBool, nil
	case value.Int:
		return value.TInt, nil
	case value.Float:
		return value.TFloat, nil
	case value.String:
		return value.TString, nil
	case value.List:
		elem, err := decType(d, depth+1)
		if err != nil {
			return nil, err
		}
		return value.TList(elem), nil
	case value.Record:
		n, err := d.count(6, maxFields)
		if err != nil {
			return nil, err
		}
		fields := make([]value.Field, n)
		for i := range fields {
			if fields[i].Name, err = d.str(); err != nil {
				return nil, err
			}
			opt, err := d.u8()
			if err != nil {
				return nil, err
			}
			fields[i].Optional = opt == 1
			if fields[i].Type, err = decType(d, depth+1); err != nil {
				return nil, err
			}
		}
		return value.TRecord(fields...), nil
	}
	return nil, fmt.Errorf("wire: unsupported type kind %d", k)
}
