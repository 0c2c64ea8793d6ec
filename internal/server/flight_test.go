package server

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/shard"
)

// unixFleet maps n shard ids to fresh unix socket addresses.
func unixFleet(t *testing.T, n int) *shard.Map {
	t.Helper()
	dir := t.TempDir()
	infos := make([]shard.Info, n)
	for i := range infos {
		infos[i] = shard.Info{ID: i, Addr: "unix:" + filepath.Join(dir, fmt.Sprintf("m%d.sock", i))}
	}
	m, err := shard.NewMap(infos)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ownedBy returns a (dataset, predicate) key whose rendezvous owner is id.
func ownedBy(m *shard.Map, id int) (ds, canon string) {
	for i := 0; ; i++ {
		ds, canon = "t", fmt.Sprintf("(id<=%d)", i)
		if m.Owner(shard.Key(ds, canon)).ID == id {
			return ds, canon
		}
	}
}

// A hung lease owner (accepts connections, never answers) must cost a
// Materialize call one bounded request timeout and then degrade to a
// local build — ok=true, no lease — never hang the query.
func TestFlightLeaseTimeoutDegradesToLocalBuild(t *testing.T) {
	m := unixFleet(t, 2)
	ln, err := net.Listen("unix", strings.TrimPrefix(m.Shards()[0].Addr, "unix:"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-stop // hold the connection open, answer nothing
				c.Close()
			}()
		}
	}()

	fl := newFlight(1, m, shard.NewLeaseTable())
	fl.opts.RequestTimeout = 100 * time.Millisecond
	defer fl.Close()

	ds, canon := ownedBy(m, 0) // the hung shard
	start := time.Now()
	release, ok := fl.Materialize(ds, canon)
	elapsed := time.Since(start)
	if !ok {
		t.Fatal("Materialize denied the build; a hung owner must degrade to building locally")
	}
	if release != nil {
		release()
	}
	if elapsed > time.Second {
		t.Fatalf("Materialize took %v against a hung owner; want ~the 100ms request timeout", elapsed)
	}
}

// A shard that leaves the fleet is never contacted again, so nothing would
// ever fail on its cached connection: the topology change itself must close
// it, sockets and read-loop goroutines included.
func TestLeaveClosesDepartedPeer(t *testing.T) {
	m := unixFleet(t, 3)
	members := make([]*Member, 3)
	for i, s := range m.Shards() {
		mb, err := NewMember(i, m, recache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("unix", strings.TrimPrefix(s.Addr, "unix:"))
		if err != nil {
			t.Fatal(err)
		}
		go mb.Serve(ln)
		defer mb.Close()
		members[i] = mb
	}
	fl := members[0].flight
	for _, owner := range []int{1, 2} {
		ds, canon := ownedBy(m, owner)
		release, ok := fl.Materialize(ds, canon)
		if !ok || release == nil {
			t.Fatalf("lease from shard %d: release=%v ok=%v", owner, release != nil, ok)
		}
		release()
	}
	peerIDs := func() []int {
		fl.mu.Lock()
		defer fl.mu.Unlock()
		var ids []int
		for id := range fl.peers {
			ids = append(ids, id)
		}
		return ids
	}
	if ids := peerIDs(); len(ids) != 2 {
		t.Fatalf("peers before the leave: %v, want shards 1 and 2", ids)
	}
	cl, err := client.Dial(m.Shards()[0].Addr, client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := runtime.NumGoroutine()
	if err := cl.Leave(2); err != nil {
		t.Fatal(err)
	}
	if ids := peerIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("peers after shard 2 left: %v, want only shard 1", ids)
	}
	// The closed connection's read loop and shard 2's session unwind.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() >= before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drop after the leave: %d, was %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// After Close nobody drains the replication queue: a late push must be
// dropped and counted, not parked in the channel pinning its store.
func TestReplicateAfterCloseIsDropped(t *testing.T) {
	fl := newFlight(0, unixFleet(t, 1), shard.NewLeaseTable())
	fl.Close()
	for i := 0; i < 100; i++ {
		fl.Replicate("t", "(id<=1)", nil)
	}
	if drops, queued := fl.repDropped.Load(), len(fl.repq); drops != 100 || queued != 0 {
		t.Fatalf("after Close: %d drops, %d queued; want 100 and 0", drops, queued)
	}
}
