// Package server serves a recache.Engine to many concurrent clients over
// the wire protocol in internal/wire.
//
// Each accepted connection gets a session: one reader goroutine pulls
// frames off the socket and spawns a goroutine per request, so a pipelined
// connection keeps any number of queries in the engine's concurrent exec
// path at once, each cold miss scanning the raw file on its own request
// goroutine. Responses are queued to a per-session writer goroutine in
// completion order — it batches everything queued into one flush syscall
// per wakeup — and the client matches them back by request id.
//
// Shutdown is a graceful drain: listeners close (no new connections),
// session readers are kicked off their blocking reads (no new requests),
// every in-flight request runs to completion and its response is flushed,
// then connections close. The engine is not touched — the owner closes it
// after Shutdown returns, and a drained engine reports OpenTxns == 0
// because every query's cache transaction closed with it.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"recache"
	"recache/internal/shard"
	"recache/internal/store"
	"recache/internal/wire"
)

// maxRequestFrame caps inbound request frames. Most requests are small
// (SQL text and registration paths), but OpReplicate carries a cache
// entry's serialized payload, and a member's flight skips pushes above
// the same cap. Still far below wire.MaxFrame, so a hostile peer cannot
// make every connection buffer 64 MiB.
const maxRequestFrame = 8 << 20

// Server serves one engine over any number of listeners.
type Server struct {
	eng *recache.Engine

	// Fleet state, set by NewMember before Serve: fleetMap is the shared
	// topology (nil on a solo daemon), fleetSelf this daemon's shard id in
	// it, flight the engine's side of the fleet. leases backs the wire lease
	// ops; it is always non-nil so leases work on a solo daemon too, and a
	// member's flight takes its local leases from the same table, so a key
	// the daemon materializes itself blocks wire lease requests for it and
	// vice versa. fleetMap shrinks under mu when a peer announces departure
	// (OpLeave → RemoveShard).
	fleetSelf int
	fleetMap  *shard.Map
	leases    *shard.LeaseTable
	flight    *flight

	// mu guards listeners, sessions, and the draining transition; wg counts
	// live sessions. A session is registered (and wg.Add called) under mu
	// with draining checked, and Shutdown flips draining under mu before
	// waiting — so no session can slip in after the drain snapshot.
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	draining  bool
	wg        sync.WaitGroup

	sessionsTotal atomic.Int64
	requests      atomic.Int64
	inFlight      atomic.Int64
	errors        atomic.Int64
	batchResults  atomic.Int64
	rowResults    atomic.Int64
}

// New creates a solo server around an open engine. The server does not
// own the engine: Shutdown drains the wire side only, and the caller closes
// the engine afterwards. A fleet shard is a Member instead.
func New(eng *recache.Engine) *Server {
	return &Server{
		eng:       eng,
		leases:    shard.NewLeaseTable(),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
	}
}

// RemoveShard drops a departed member from the fleet map (the OpLeave
// handler). Removing an id that is already gone is a no-op — leave
// announcements may be duplicated. Removing this daemon's own id is
// rejected: a shard leaves by telling its peers, not itself.
func (s *Server) RemoveShard(id int) error {
	s.mu.Lock()
	if s.fleetMap == nil {
		s.mu.Unlock()
		return errors.New("daemon is not part of a fleet")
	}
	if id == s.fleetSelf {
		s.mu.Unlock()
		return fmt.Errorf("shard %d cannot leave itself", id)
	}
	known := false
	for _, sh := range s.fleetMap.Shards() {
		if sh.ID == id {
			known = true
			break
		}
	}
	if !known {
		s.mu.Unlock()
		return nil
	}
	nm, err := s.fleetMap.Remove(id)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.fleetMap = nm
	s.mu.Unlock()
	// Outside the lock: re-routing closes the departed shard's connection.
	s.flight.updateMap(nm)
	return nil
}

// Kill abandons the server without draining: listeners close and every
// live connection is severed immediately, mid-response if need be.
// In-flight handlers still run to completion against the engine (their
// responses go nowhere), so engine state stays consistent. It simulates a
// crashed shard without exiting the process — the fleet tests' kill
// switch. After Kill, Shutdown still waits for the sessions to unwind.
func (s *Server) Kill() {
	s.mu.Lock()
	s.draining = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.conn.Close()
	}
}

// Serve accepts connections on ln until Shutdown (returns nil) or a fatal
// accept error (returned). Multiple Serve calls on different listeners may
// run concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			delete(s.listeners, ln)
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		sess := &session{
			srv:  s,
			conn: conn,
			bw:   bufio.NewWriter(conn),
			wch:  make(chan []byte, 64),
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.sessionsTotal.Add(1)
		go sess.run()
	}
}

// Shutdown drains the server: it stops accepting, kicks every session off
// its blocking read, waits for in-flight requests to complete and their
// responses to flush, then closes the connections. Safe to call more than
// once; every call returns only after the drain completes.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	s.draining = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	// A read deadline in the past unblocks the reader's ReadFrame; the
	// write side is untouched, so pending responses still go out.
	for _, sess := range sessions {
		sess.conn.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	return nil
}

// Stats snapshots the serving counters.
func (s *Server) Stats() wire.ServerStats {
	s.mu.Lock()
	active := int64(len(s.sessions))
	draining := s.draining
	s.mu.Unlock()
	return wire.ServerStats{
		Sessions:       s.sessionsTotal.Load(),
		ActiveSessions: active,
		Requests:       s.requests.Load(),
		InFlight:       s.inFlight.Load(),
		Errors:         s.errors.Load(),
		BatchResults:   s.batchResults.Load(),
		RowResults:     s.rowResults.Load(),
		Draining:       draining,
	}
}

// session is one client connection: a reader loop, a goroutine per
// in-flight request, and a writer goroutine that owns the buffered writer.
// Handlers queue finished response frames on wch; the writer drains
// whatever has accumulated and pays one flush syscall per wakeup, so under
// load a pipelined connection's responses batch adaptively — instantly when
// idle, many-per-syscall when busy.
type session struct {
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer
	wch  chan []byte
	// reqWG counts this session's in-flight requests so the drain path can
	// wait for their responses before closing the connection.
	reqWG sync.WaitGroup
	wwg   sync.WaitGroup
}

func (sess *session) run() {
	defer sess.srv.wg.Done()
	sess.wwg.Add(1)
	go sess.writeLoop()
	br := bufio.NewReader(sess.conn)
	// Request frames are parsed fully (ParseRequest copies every field)
	// before the handler goroutine spawns, so one scratch buffer serves the
	// whole connection.
	var buf []byte
	for {
		var payload []byte
		var err error
		payload, buf, err = wire.ReadFrameInto(br, maxRequestFrame, buf)
		if err != nil {
			// EOF, the drain kick's deadline error, or a framing violation:
			// in every case the connection takes no more requests.
			break
		}
		req, err := wire.ParseRequest(payload)
		if err != nil {
			// A malformed frame desynchronizes the stream; drop the
			// connection rather than guess where the next frame starts.
			break
		}
		sess.srv.requests.Add(1)
		sess.reqWG.Add(1)
		go sess.handle(req)
	}
	sess.reqWG.Wait()
	// Handlers enqueue before reqWG.Done, so no sends can follow the Wait.
	close(sess.wch)
	sess.wwg.Wait()
	sess.conn.Close()
	sess.srv.mu.Lock()
	delete(sess.srv.sessions, sess)
	sess.srv.mu.Unlock()
}

// writeLoop drains response frames off wch, batching every frame already
// queued into the bufio writer before paying a single flush. On a write
// error the client is gone: the connection closes (which also kicks the
// reader loop) and the loop keeps draining so handlers never block on a
// dead peer.
func (sess *session) writeLoop() {
	defer sess.wwg.Done()
	var err error
	for {
		frame, ok := <-sess.wch
		if !ok {
			return
		}
		if err == nil {
			_, err = sess.bw.Write(frame)
		}
		wire.RecycleFrame(frame)
	batch:
		for err == nil {
			select {
			case f, ok := <-sess.wch:
				if !ok {
					err = sess.bw.Flush()
					if err != nil {
						sess.conn.Close()
					}
					return
				}
				_, err = sess.bw.Write(f)
				wire.RecycleFrame(f)
			default:
				err = sess.bw.Flush()
				break batch
			}
		}
		if err != nil {
			sess.conn.Close()
		}
	}
}

// respBufPool recycles the per-request result-serialization buffer. The
// response frame copies out of it (wire.EncodeResponse), so it is free for
// reuse as soon as the frame is built; buffers that ballooned on a huge
// result are dropped rather than pinned.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (sess *session) handle(req *wire.Request) {
	defer sess.reqWG.Done()
	scratch := respBufPool.Get().(*bytes.Buffer)
	scratch.Reset()
	defer func() {
		if scratch.Cap() <= 1<<20 {
			respBufPool.Put(scratch)
		}
	}()
	sess.srv.inFlight.Add(1)
	resp := sess.srv.dispatch(req, scratch)
	sess.srv.inFlight.Add(-1)
	if resp.Err != "" {
		sess.srv.errors.Add(1)
	}
	frame, err := wire.EncodeResponse(resp)
	if err != nil {
		// Typically a result batch past the frame cap: the query ran, but
		// its result cannot ship. Tell the client instead of stalling it.
		sess.srv.errors.Add(1)
		frame, err = wire.EncodeResponse(&wire.Response{
			ID: req.ID, Op: req.Op,
			Err: fmt.Sprintf("response too large: %v", err),
		})
		if err != nil {
			return
		}
	}
	sess.wch <- frame
}

// dispatch executes one request against the engine. Every failure becomes
// an error response — the connection itself only dies on protocol errors.
// scratch backs OpQuery's serialized result batch; the caller owns it and
// must not recycle it before the response is encoded.
func (s *Server) dispatch(req *wire.Request, scratch *bytes.Buffer) *wire.Response {
	resp := &wire.Response{ID: req.ID, Op: req.Op}
	fail := func(err error) *wire.Response {
		resp.Err = err.Error()
		return resp
	}
	switch req.Op {
	case wire.OpPing:
	case wire.OpQuery:
		br, err := s.eng.QueryColumnar(req.SQL)
		if err != nil {
			return fail(err)
		}
		if br.Stats.ResultBatches > 0 {
			s.batchResults.Add(1)
		} else {
			s.rowResults.Add(1)
		}
		if err := store.WriteParquet(scratch, br.Store); err != nil {
			return fail(err)
		}
		resp.Result = &wire.Result{
			Columns:   br.Columns,
			Schema:    br.Schema,
			Batch:     scratch.Bytes(),
			WallNanos: br.Stats.Wall.Nanoseconds(),
			NumRows:   int64(br.Stats.Rows),
		}
	case wire.OpExplain:
		text, err := s.eng.Explain(req.SQL)
		if err != nil {
			return fail(err)
		}
		resp.Text = text
	case wire.OpStats:
		blob, err := json.Marshal(wire.Stats{
			Cache:  s.eng.Manager().Stats(),
			Server: s.Stats(),
		})
		if err != nil {
			return fail(err)
		}
		resp.StatsJSON = blob
	case wire.OpTables:
		resp.Tables = s.eng.Tables()
	case wire.OpSchema:
		text, err := s.eng.TableSchema(req.Name)
		if err != nil {
			return fail(err)
		}
		resp.Text = text
	case wire.OpTableStats:
		scans, skipped := s.eng.RawPushdownStats(req.Name)
		resp.TableStats = &wire.TableStats{
			RawScans:     s.eng.RawScans(req.Name),
			PushScans:    scans,
			SkippedEarly: skipped,
		}
	case wire.OpEntries:
		infos := s.eng.CacheEntries()
		entries := make([]wire.Entry, len(infos))
		for i, e := range infos {
			entries[i] = wire.Entry{
				ID: e.ID, Table: e.Table, Predicate: e.Predicate,
				Mode: e.Mode, Layout: e.Layout, Bytes: e.Bytes, Reuses: e.Reuses,
			}
		}
		blob, err := json.Marshal(entries)
		if err != nil {
			return fail(err)
		}
		resp.EntriesJSON = blob
	case wire.OpRegisterCSV:
		if err := s.eng.RegisterCSV(req.Name, req.Path, req.Schema, req.Delim); err != nil {
			return fail(err)
		}
	case wire.OpRegisterJSON:
		if err := s.eng.RegisterJSON(req.Name, req.Path, req.Schema); err != nil {
			return fail(err)
		}
	case wire.OpFleet:
		s.mu.Lock()
		m := s.fleetMap
		s.mu.Unlock()
		if m == nil {
			return fail(errors.New("daemon is not part of a fleet"))
		}
		f := &wire.Fleet{Self: int32(s.fleetSelf)}
		for _, sh := range m.Shards() {
			f.Shards = append(f.Shards, wire.FleetShard{ID: int32(sh.ID), Addr: sh.Addr})
		}
		resp.Fleet = f
	case wire.OpLeaseAcquire:
		granted, exp := s.leases.Acquire(req.Key, req.Holder,
			time.Duration(req.TTLMillis)*time.Millisecond)
		resp.Lease = &wire.Lease{Granted: granted, ExpiresUnixMicro: exp.UnixMicro()}
	case wire.OpLeaseRelease:
		s.leases.Release(req.Key, req.Holder)
	case wire.OpReplicate:
		if err := s.eng.AdmitReplica(req.Name, req.Pred, req.Payload); err != nil {
			return fail(err)
		}
	case wire.OpLeave:
		if err := s.RemoveShard(int(req.ShardID)); err != nil {
			return fail(err)
		}
	default:
		resp.Err = fmt.Sprintf("unsupported op %s", req.Op)
	}
	return resp
}
