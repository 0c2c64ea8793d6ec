// Package client is the Go client for a recached daemon. It speaks the
// internal/wire protocol: pipelined requests over a small pool of
// connections, responses matched back by request id, columnar result
// batches decoded with internal/store's RCS reader.
//
// A Client is safe for concurrent use; calls are distributed round-robin
// over the pool and any number may be in flight per connection.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recache/internal/store"
	"recache/internal/value"
	"recache/internal/wire"
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("client: closed")

// ServerError is an application-level error the daemon answered with (a
// status-error frame): unknown table, SQL parse failure, draining, and so
// on. The daemon processed the request and rejected it — the connection is
// healthy — so retrying the same request elsewhere cannot help. The
// failover router uses exactly this distinction: transport errors (lost
// connections, timeouts) are retryable, ServerErrors are not.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "recached: " + e.Msg }

// Options configures a Client. The zero value dials one connection with a
// 5s dial timeout and no per-request deadline.
type Options struct {
	// PoolSize is the number of connections to open (default 1). Requests
	// pipeline, so one connection already supports unlimited concurrency;
	// more connections spread framing work and head-of-line blocking.
	PoolSize int
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request round trip; 0 waits forever.
	RequestTimeout time.Duration
}

// ParseAddr splits a daemon address into (network, address). Accepted
// forms: "unix:/path/to.sock", "tcp:host:port", a bare path starting with
// '/' (unix), or a bare host:port (tcp).
func ParseAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", addr[len("unix:"):], nil
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", addr[len("tcp:"):], nil
	case strings.HasPrefix(addr, "/"):
		return "unix", addr, nil
	case addr == "":
		return "", "", errors.New("client: empty address")
	default:
		return "tcp", addr, nil
	}
}

// Result is a decoded query result.
type Result struct {
	Columns []string
	// Rows hold Go natives: int64, float64, string, bool, nil for NULL. The
	// rows of one decoded batch (up to store.BatchRows) share a backing slab.
	Rows [][]any
	// Wall is the server-side execution time; round-trip latency is the
	// caller's clock minus this.
	Wall time.Duration
}

// Client is a connection pool to one daemon.
type Client struct {
	opts   Options
	nextID atomic.Uint64
	next   atomic.Uint64 // round-robin cursor

	mu     sync.Mutex
	conns  []*conn
	closed bool
}

// Dial connects to a daemon at addr (see ParseAddr) and opens the pool
// eagerly, so a bad address fails here and not on first use.
func Dial(addr string, opts Options) (*Client, error) {
	network, address, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 1
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	cl := &Client{opts: opts}
	for i := 0; i < opts.PoolSize; i++ {
		nc, err := net.DialTimeout(network, address, opts.DialTimeout)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("client: dial %s %s: %w", network, address, err)
		}
		cn := &conn{
			c:       nc,
			bw:      bufio.NewWriter(nc),
			pending: make(map[uint64]chan []byte),
			done:    make(chan struct{}),
		}
		cl.conns = append(cl.conns, cn)
		go cn.readLoop()
	}
	return cl, nil
}

// Close tears down every connection; in-flight calls fail.
func (cl *Client) Close() error {
	cl.mu.Lock()
	conns := cl.conns
	cl.conns = nil
	cl.closed = true
	cl.mu.Unlock()
	for _, cn := range conns {
		cn.shutdown(ErrClosed)
	}
	return nil
}

// conn is one pooled connection: a writer serialized by wmu and a demux
// reader goroutine that hands each response to the waiter registered under
// its id.
type conn struct {
	c   net.Conn
	wmu sync.Mutex
	bw  *bufio.Writer
	// wq counts senders that have committed to writing: the last one out
	// flushes, so pipelined requests from concurrent callers coalesce into
	// one write syscall instead of one per request.
	wq atomic.Int32

	mu      sync.Mutex
	pending map[uint64]chan []byte
	err     error
	done    chan struct{}
}

// readLoop demuxes response frames to their waiters by request id. Frames
// are delivered as raw payloads in pooled buffers and parsed by the
// claiming caller — a load driver calling Exec never decodes columns or
// schema at all. Each waiter recycles its payload when done.
func (cn *conn) readLoop() {
	br := bufio.NewReader(cn.c)
	for {
		payload, buf, err := wire.ReadFrameInto(br, wire.MaxFrame, getPayload())
		if err != nil {
			putPayload(buf)
			cn.shutdown(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		id, err := wire.ResponseID(payload)
		if err != nil {
			// Too short to route: the stream is unrecoverable.
			putPayload(buf)
			cn.shutdown(fmt.Errorf("client: protocol error: %w", err))
			return
		}
		cn.mu.Lock()
		ch := cn.pending[id]
		delete(cn.pending, id)
		cn.mu.Unlock()
		if ch != nil {
			ch <- payload
		} else {
			putPayload(payload)
		}
	}
}

// payloadPool recycles response payload buffers: one per response is the
// client's biggest steady allocation. Buffers that ballooned on a large
// result batch are dropped rather than pinned.
var payloadPool sync.Pool // *[]byte

func getPayload() []byte {
	if p, ok := payloadPool.Get().(*[]byte); ok {
		return *p
	}
	return make([]byte, 0, 4096)
}

func putPayload(b []byte) {
	if cap(b) == 0 || cap(b) > 1<<16 {
		return
	}
	payloadPool.Put(&b)
}

// shutdown fails every waiter and closes the socket. Idempotent; the first
// error wins.
func (cn *conn) shutdown(err error) {
	cn.mu.Lock()
	if cn.err == nil {
		cn.err = err
		close(cn.done)
	}
	pending := cn.pending
	cn.pending = make(map[uint64]chan []byte)
	cn.mu.Unlock()
	cn.c.Close()
	for _, ch := range pending {
		close(ch)
	}
}

func (cn *conn) shutdownErr() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err
}

func (cn *conn) send(frame []byte) error {
	cn.wq.Add(1)
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	_, err := cn.bw.Write(frame)
	if cn.wq.Add(-1) > 0 {
		// Another sender is already committed to acquiring wmu: leave the
		// flush to the last one so back-to-back requests share a syscall.
		return err
	}
	if err != nil {
		return err
	}
	return cn.bw.Flush()
}

// roundtrip sends one request on a pooled connection and waits for its
// response, honoring the request timeout. It returns the raw response
// payload in a pooled buffer; the caller parses it and hands the buffer
// back with putPayload when every alias (e.g. the result batch) is dead.
func (cl *Client) roundtrip(req *wire.Request) ([]byte, error) {
	cl.mu.Lock()
	if cl.closed || len(cl.conns) == 0 {
		cl.mu.Unlock()
		return nil, ErrClosed
	}
	cn := cl.conns[cl.next.Add(1)%uint64(len(cl.conns))]
	cl.mu.Unlock()

	req.ID = cl.nextID.Add(1)
	frame, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	ch := respChanPool.Get().(chan []byte)
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return nil, err
	}
	cn.pending[req.ID] = ch
	cn.mu.Unlock()

	err = cn.send(frame)
	// send copied the frame into the connection's buffered writer (or
	// failed); either way the frame bytes are done.
	wire.RecycleFrame(frame)
	if err != nil {
		cn.mu.Lock()
		delete(cn.pending, req.ID)
		cn.mu.Unlock()
		return nil, fmt.Errorf("client: send: %w", err)
	}

	if cl.opts.RequestTimeout <= 0 {
		// No deadline: a plain receive skips the select machinery.
		payload, ok := <-ch
		if !ok {
			return nil, cn.shutdownErr()
		}
		respChanPool.Put(ch)
		return payload, nil
	}
	t := timerPool.Get().(*time.Timer)
	t.Reset(cl.opts.RequestTimeout)
	defer func() {
		t.Stop()
		timerPool.Put(t)
	}()
	timeout := t.C
	select {
	case payload, ok := <-ch:
		if !ok {
			// Closed by shutdown: the channel is dead, leave it out of the
			// pool.
			return nil, cn.shutdownErr()
		}
		// Delivered normally: the id is unregistered and nothing else can
		// send on ch, so it is clean for reuse.
		respChanPool.Put(ch)
		return payload, nil
	case <-timeout:
		// The read loop may still hold ch (looked up before our delete):
		// abandon it rather than risk a stale response reaching the pool.
		cn.mu.Lock()
		delete(cn.pending, req.ID)
		cn.mu.Unlock()
		return nil, fmt.Errorf("client: %s request timed out after %v", req.Op, cl.opts.RequestTimeout)
	}
}

// call is roundtrip plus the full response parse and the status/op checks
// shared by every RPC. The returned payload backs the response's aliasing
// fields (result batch, stats JSON); the caller recycles it with
// putPayload once those are consumed. On error the payload is already
// recycled.
func (cl *Client) call(req *wire.Request) (*wire.Response, []byte, error) {
	payload, err := cl.roundtrip(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := wire.ParseResponse(payload)
	if err != nil {
		putPayload(payload)
		return nil, nil, fmt.Errorf("client: protocol error: %w", err)
	}
	if resp.Err != "" {
		putPayload(payload)
		return nil, nil, &ServerError{Msg: resp.Err}
	}
	if resp.Op != req.Op {
		putPayload(payload)
		return nil, nil, fmt.Errorf("client: response op %s for %s request", resp.Op, req.Op)
	}
	return resp, payload, nil
}

// respChanPool recycles the one-shot response channels: one per request is
// pure allocator churn under sustained load. Only channels whose response
// was delivered normally return to the pool (see roundtrip).
var respChanPool = sync.Pool{New: func() any { return make(chan []byte, 1) }}

// timerPool recycles request timers. Safe since Go 1.23 timer semantics:
// Stop guarantees no send is pending on t.C afterwards, so a pooled timer
// cannot deliver a stale tick to its next user.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// Ping round-trips an empty frame (health check, connection warm-up).
func (cl *Client) Ping() error {
	_, payload, err := cl.call(&wire.Request{Op: wire.OpPing})
	putPayload(payload)
	return err
}

// Query executes sql on the daemon and decodes the columnar result batch
// into native rows.
func (cl *Client) Query(sql string) (*Result, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpQuery, SQL: sql})
	if err != nil {
		return nil, err
	}
	defer putPayload(payload) // decoded rows copy out of the batch
	r := resp.Result
	if r == nil {
		return nil, errors.New("client: query response without result")
	}
	st, err := store.ReadParquetBytes(r.Batch, r.Schema)
	if err != nil {
		return nil, fmt.Errorf("client: decode result batch: %w", err)
	}
	out := &Result{
		Columns: r.Columns,
		Wall:    time.Duration(r.WallNanos),
	}
	// Sized from the decoded store, whose record count ReadParquetBytes has
	// proven against the batch's length; the header's NumRows is an
	// unchecked u64 off the wire.
	if n := st.NumRecords(); n > 0 {
		out.Rows = make([][]any, 0, n)
	}
	if out.Rows, err = decodeRows(out.Rows, st); err != nil {
		return nil, err
	}
	if int64(len(out.Rows)) != r.NumRows {
		return nil, fmt.Errorf("client: batch decoded to %d rows, header says %d", len(out.Rows), r.NumRows)
	}
	return out, nil
}

// decodeRows boxes a result store into native rows appended to rows. A flat
// result — every output column a primitive — is decoded column by column
// straight from the store's vectors, one backing slab per batch; a list- or
// record-typed output column needs record assembly (ScanNested).
func decodeRows(rows [][]any, st store.Store) ([][]any, error) {
	if cur, ok := flatCursor(st); ok {
		buf := make([]int32, min(store.BatchRows, st.NumRecords()))
		for sel := cur.Next(buf); sel != nil; sel = cur.Next(buf) {
			rows = store.AppendNative(rows, cur.Cols, sel)
		}
		return rows, nil
	}
	err := st.ScanNested(func(rec value.Value) error {
		rows = append(rows, toNative(rec.L))
		return nil
	})
	return rows, err
}

// flatCursor opens a per-record batch cursor over every column of st; ok is
// false when an output column is list- or record-typed.
func flatCursor(st store.Store) (*store.BatchCursor, bool) {
	fields := st.Schema().Fields
	idx := make([]int, len(fields))
	for i, f := range fields {
		if f.Type.Kind == value.Record || f.Type.Kind == value.List {
			return nil, false
		}
		idx[i] = i
	}
	cur, err := st.BatchCursor(false, idx)
	return cur, err == nil
}

// Exec runs sql on the daemon and returns the result's row count and
// server-side wall time without materializing rows. The batch still
// crosses the wire and is frame-checked, but column names, schema, and
// batch bytes are never decoded — the right call for load drivers and
// callers that only need the side effect (cache admission) or the count.
func (cl *Client) Exec(sql string) (rows int64, wall time.Duration, err error) {
	payload, err := cl.roundtrip(&wire.Request{Op: wire.OpQuery, SQL: sql})
	if err != nil {
		return 0, 0, err
	}
	h, err := wire.ParseResponseHeader(payload)
	putPayload(payload) // the header aliases nothing
	if err != nil {
		return 0, 0, fmt.Errorf("client: protocol error: %w", err)
	}
	if h.Err != "" {
		return 0, 0, &ServerError{Msg: h.Err}
	}
	if h.Op != wire.OpQuery {
		return 0, 0, fmt.Errorf("client: response op %s for %s request", h.Op, wire.OpQuery)
	}
	return h.NumRows, time.Duration(h.WallNanos), nil
}

// Explain returns the daemon's rewritten physical plan for sql.
func (cl *Client) Explain(sql string) (string, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpExplain, SQL: sql})
	if err != nil {
		return "", err
	}
	putPayload(payload) // Text is copied during the parse
	return resp.Text, nil
}

// Stats fetches the daemon's cache and serving counters.
func (cl *Client) Stats() (*wire.Stats, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	var s wire.Stats
	err = json.Unmarshal(resp.StatsJSON, &s)
	putPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("client: decode stats: %w", err)
	}
	return &s, nil
}

// Tables lists the daemon's registered tables.
func (cl *Client) Tables() ([]string, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpTables})
	if err != nil {
		return nil, err
	}
	putPayload(payload) // table names are copied during the parse
	return resp.Tables, nil
}

// Schema returns the schema DSL of a registered table.
func (cl *Client) Schema(name string) (string, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpSchema, Name: name})
	if err != nil {
		return "", err
	}
	putPayload(payload)
	return resp.Text, nil
}

// TableStats fetches one table's provider-level raw-scan counters — the
// over-the-wire view of the raw-scan and pushdown metrics.
func (cl *Client) TableStats(name string) (*wire.TableStats, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpTableStats, Name: name})
	if err != nil {
		return nil, err
	}
	putPayload(payload) // counters are scalars
	return resp.TableStats, nil
}

// Entries lists the daemon's live cache entries.
func (cl *Client) Entries() ([]wire.Entry, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpEntries})
	if err != nil {
		return nil, err
	}
	var entries []wire.Entry
	err = json.Unmarshal(resp.EntriesJSON, &entries)
	putPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("client: decode entries: %w", err)
	}
	return entries, nil
}

// Fleet fetches the daemon's fleet topology; standalone daemons answer
// with an error.
func (cl *Client) Fleet() (*wire.Fleet, error) {
	resp, payload, err := cl.call(&wire.Request{Op: wire.OpFleet})
	if err != nil {
		return nil, err
	}
	putPayload(payload) // shard addrs are copied during the parse
	if resp.Fleet == nil {
		return nil, errors.New("client: fleet response without topology")
	}
	return resp.Fleet, nil
}

// LeaseAcquire asks the daemon for a materialization lease on key — the
// wire half of fleet-wide single-flight (see internal/shard).
func (cl *Client) LeaseAcquire(key string, holder uint64, ttl time.Duration) (*wire.Lease, error) {
	resp, payload, err := cl.call(&wire.Request{
		Op: wire.OpLeaseAcquire, Key: key, Holder: holder,
		TTLMillis: uint32(ttl / time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	putPayload(payload) // the lease is scalars
	if resp.Lease == nil {
		return nil, errors.New("client: lease response without lease")
	}
	return resp.Lease, nil
}

// LeaseRelease hands back a lease previously granted to holder.
func (cl *Client) LeaseRelease(key string, holder uint64) error {
	_, payload, err := cl.call(&wire.Request{Op: wire.OpLeaseRelease, Key: key, Holder: holder})
	putPayload(payload)
	return err
}

// Replicate pushes one cache entry's RCS payload to the daemon, which
// admits it as a disk-tier replica (idempotent on the receiving side).
// The owning shard calls it after each eager admission; a draining shard
// streams its whole working set out this way.
func (cl *Client) Replicate(name, predCanon string, payload []byte) error {
	_, respPayload, err := cl.call(&wire.Request{Op: wire.OpReplicate, Name: name, Pred: predCanon, Payload: payload})
	putPayload(respPayload)
	return err
}

// Leave announces that the fleet member with shardID is departing
// gracefully; the daemon drops it from its fleet map so routers refreshing
// topology stop targeting it.
func (cl *Client) Leave(shardID int) error {
	_, payload, err := cl.call(&wire.Request{Op: wire.OpLeave, ShardID: int32(shardID)})
	putPayload(payload)
	return err
}

// RegisterCSV registers a CSV file on the daemon (path is resolved on the
// daemon's filesystem). Empty schema infers from the file.
func (cl *Client) RegisterCSV(name, path, schema string, delim byte) error {
	_, payload, err := cl.call(&wire.Request{Op: wire.OpRegisterCSV, Name: name, Path: path, Schema: schema, Delim: delim})
	putPayload(payload)
	return err
}

// RegisterJSON registers a newline-delimited JSON file on the daemon.
func (cl *Client) RegisterJSON(name, path, schema string) error {
	_, payload, err := cl.call(&wire.Request{Op: wire.OpRegisterJSON, Name: name, Path: path, Schema: schema})
	putPayload(payload)
	return err
}

func toNative(row []value.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind {
		case value.Int:
			out[i] = v.I
		case value.Float:
			out[i] = v.F
		case value.String:
			out[i] = v.S
		case value.Bool:
			out[i] = v.B
		case value.Null:
			out[i] = nil
		default:
			out[i] = v.String()
		}
	}
	return out
}
