package server

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"recache/internal/client"
	"recache/internal/shard"
	"recache/internal/store"
)

// flight is a member's client side of the fleet, the cache.Fleet its engine
// is opened with: before the local engine materializes a missed (dataset,
// predicate) entry, Materialize asks the key's rendezvous owner for a
// short-TTL lease. Keys the member owns itself are taken from its local
// lease table — the same table its server answers wire lease requests from
// — so local builds and remote requests for one key contend on one lock.
//
// Failure policy is availability-first: if the owning shard is unreachable
// or answers with an error, the build proceeds without a lease. A dead
// owner can therefore cost duplicate parses for the keys it owned, but it
// can never wedge the fleet — and a dead *holder* is bounded by the lease
// TTL on the owner.
type flight struct {
	self   int
	local  *shard.LeaseTable
	opts   client.Options
	holder uint64

	// repq feeds the single replication worker; Close closes it (under mu,
	// where Replicate sends) and repWG waits for the worker's exit.
	repq  chan replicateJob
	repWG sync.WaitGroup
	// repDropped counts pushes dropped on queue overflow, oversize, or
	// after Close.
	repDropped atomic.Int64

	mu     sync.Mutex
	m      *shard.Map             // current topology; updateMap swaps it on drain
	peers  map[int]*client.Client // shard id → lazily dialed connection
	closed bool
}

// replicateJob is one queued replica push: the entry's identity plus its
// materialized store, serialized by the worker off the query path.
type replicateJob struct {
	dataset   string
	predCanon string
	st        store.Store
}

// holderSeq disambiguates flights created within one clock tick (tests
// build several per process).
var holderSeq atomic.Uint64

// errFlightClosed fails peer dials after Close.
var errFlightClosed = errors.New("server: fleet member closed")

// newFlight creates the fleet side of the shard with id self in m, backed
// by the lease table shared with the shard's server, and starts its
// replication worker. The peer timeouts are short so a hung owner delays a
// query, not hangs it: every flight RPC degrades to a local build on
// failure, so the only thing a long timeout buys is a longer stall.
func newFlight(self int, m *shard.Map, local *shard.LeaseTable) *flight {
	f := &flight{
		self:   self,
		m:      m,
		local:  local,
		opts:   client.Options{DialTimeout: 2 * time.Second, RequestTimeout: 2 * time.Second},
		holder: uint64(time.Now().UnixNano())<<16 | uint64(os.Getpid()+int(holderSeq.Add(1)))&0xffff,
		peers:  make(map[int]*client.Client),
		// Replication is best-effort: 64 queued stores ride out a burst of
		// admissions, and a longer backlog is dropped instead of pinned.
		repq: make(chan replicateJob, 64),
	}
	f.repWG.Add(1)
	go f.replicateLoop()
	return f
}

// Materialize implements cache.Fleet for (dataset, predCanon): ok=false
// means another process holds the build lease and the caller should execute
// raw without admitting; on ok=true the release (nil when no lease backs
// the build) runs when the query's Txn closes.
func (f *flight) Materialize(dataset, predCanon string) (release func(), ok bool) {
	key := shard.Key(dataset, predCanon)
	owner := f.fleetMap().Owner(key)
	if owner.ID == f.self {
		granted, _ := f.local.Acquire(key, f.holder, shard.DefaultTTL)
		if !granted {
			return nil, false
		}
		return func() { f.local.Release(key, f.holder) }, true
	}
	cl, err := f.peer(owner)
	if err != nil {
		return nil, true // owner unreachable: build anyway (see doc comment)
	}
	l, err := cl.LeaseAcquire(key, f.holder, shard.DefaultTTL)
	if err != nil {
		// RPC failure: drop the cached connection so the next query
		// re-dials (the owner may have restarted), and build anyway.
		f.dropPeer(owner.ID, cl)
		return nil, true
	}
	if !l.Granted {
		return nil, false
	}
	return func() { cl.LeaseRelease(key, f.holder) }, true
}

// fleetMap returns the current topology snapshot.
func (f *flight) fleetMap() *shard.Map {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m
}

// updateMap swaps the flight's fleet topology when a peer announces
// departure (Server.RemoveShard), so later leases and replica pushes route
// to the surviving owners. A departed shard is never contacted again, so
// nothing would ever fail on — and thereby drop — its connection: close it
// here.
func (f *flight) updateMap(m *shard.Map) {
	member := make(map[int]bool, m.Len())
	for _, s := range m.Shards() {
		member[s.ID] = true
	}
	var gone []*client.Client
	f.mu.Lock()
	f.m = m
	for id, cl := range f.peers {
		if !member[id] {
			delete(f.peers, id)
			gone = append(gone, cl)
		}
	}
	f.mu.Unlock()
	for _, cl := range gone {
		cl.Close()
	}
}

// Replicate implements cache.Fleet: it queues one freshly admitted entry
// for replication to the key's next rendezvous shard. It must not block the
// admitting query, so the push is handed to the background worker over a
// bounded queue — when the queue is full, or the flight closed, the push is
// dropped and counted (replication is best-effort redundancy, not
// durability).
func (f *flight) Replicate(dataset, predCanon string, st store.Store) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		select {
		case f.repq <- replicateJob{dataset: dataset, predCanon: predCanon, st: st}:
			return
		default:
		}
	}
	f.repDropped.Add(1)
}

// replicateLoop is the single replication worker: it serializes each
// queued store to RCS bytes and pushes them to the key's replica shard.
// Pushes still queued when Close runs are dropped, not sent.
func (f *flight) replicateLoop() {
	defer f.repWG.Done()
	var buf bytes.Buffer
	for job := range f.repq {
		if f.isClosed() {
			f.repDropped.Add(1)
			continue
		}
		f.replicateOne(&buf, job)
	}
}

// replicateOne ships one entry to the first shard in the key's replica set
// that isn't this one. Failures are absorbed: a dead replica costs the
// redundant copy, never a query. The payload, the Parquet form, is written
// as it is — the same bytes a disk spill of the entry would hold, which is
// exactly what the receiver admits.
func (f *flight) replicateOne(buf *bytes.Buffer, job replicateJob) {
	key := shard.Key(job.dataset, job.predCanon)
	var target shard.Info
	found := false
	for _, s := range f.fleetMap().Replicas(key, shard.ReplicaFactor) {
		if s.ID != f.self {
			target, found = s, true
			break
		}
	}
	if !found {
		return // single-shard fleet: nowhere to replicate
	}
	buf.Reset()
	if err := store.WriteParquet(buf, job.st); err != nil {
		return
	}
	if buf.Len() > maxRequestFrame {
		// The receiving server would reject the frame: save the send.
		f.repDropped.Add(1)
		return
	}
	cl, err := f.peer(target)
	if err != nil {
		return
	}
	if err := cl.Replicate(job.dataset, job.predCanon, buf.Bytes()); err != nil {
		var se *client.ServerError
		if !errors.As(err, &se) {
			// Transport failure: drop the connection so the next push
			// re-dials (the replica may have restarted).
			f.dropPeer(target.ID, cl)
		}
	}
}

func (f *flight) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// peer returns the cached connection to a shard, dialing on first use.
func (f *flight) peer(s shard.Info) (*client.Client, error) {
	f.mu.Lock()
	cl, ok := f.peers[s.ID]
	f.mu.Unlock()
	if ok {
		return cl, nil
	}
	// Dial outside the lock; a concurrent dial of the same peer loses the
	// insert race below and closes its extra connection.
	cl, err := client.Dial(s.Addr, f.opts)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if prior, ok := f.peers[s.ID]; ok {
		go cl.Close()
		return prior, nil
	}
	if f.closed {
		// Close already swept the peer table; nobody would close this one.
		go cl.Close()
		return nil, errFlightClosed
	}
	f.peers[s.ID] = cl
	return cl, nil
}

// dropPeer evicts a failed connection if it is still the cached one.
func (f *flight) dropPeer(id int, cl *client.Client) {
	f.mu.Lock()
	if f.peers[id] == cl {
		delete(f.peers, id)
	}
	f.mu.Unlock()
	cl.Close()
}

// Close stops the replication worker (queued pushes are dropped — they
// are best-effort) and tears down the peer connections. Safe to call more
// than once.
func (f *flight) Close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.repq)
	}
	peers := f.peers
	f.peers = make(map[int]*client.Client)
	f.mu.Unlock()
	f.repWG.Wait()
	for _, cl := range peers {
		cl.Close()
	}
	return nil
}
