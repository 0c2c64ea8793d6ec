package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
)

// benchServer serves a warmed engine (every benchmark query is an exact
// cache hit) on a unix socket and returns a connected client plus the
// socket address for extra connections.
func benchServer(b *testing.B, queries []string) (*client.Client, string) {
	b.Helper()
	eng, err := recache.Open(recache.Config{Admission: "eager", Layout: "columnar"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() }) // registered first: runs after the server drains
	if err := eng.RegisterCSV("t", testCSV(b, 2000), "id int, qty int, price float, name string", '|'); err != nil {
		b.Fatal(err)
	}
	for _, q := range queries {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	_, addr := startServer(b, eng)
	return dial(b, addr, client.Options{}), addr
}

// BenchmarkWireHitQuery measures one cache-hit query round-trip over a
// unix socket: frame, dispatch, result encode, frame back, decode.
func BenchmarkWireHitQuery(b *testing.B) {
	q := "SELECT SUM(price), COUNT(*) FROM t WHERE qty BETWEEN 10 AND 30"
	cl, _ := benchServer(b, []string{q})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireHitQuerySwarm measures aggregate throughput with 256
// connections each keeping one request in flight — the harness server-load
// shape, where scheduler and allocation pressure dominate, not the
// round-trip itself.
func BenchmarkWireHitQuerySwarm(b *testing.B) {
	q := "SELECT SUM(price), COUNT(*) FROM t WHERE qty BETWEEN 10 AND 30"
	_, addr := benchServer(b, []string{q})
	const conc = 256
	cls := make([]*client.Client, conc)
	for i := range cls {
		c, err := client.Dial(addr, client.Options{RequestTimeout: 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cls[i] = c
	}
	// Four lanes per connection: the pipelined stream shape the harness
	// server-load phase drives, where flush coalescing batches frames.
	const lanes = 4
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < conc*lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := cls[i/lanes].Query(q); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// BenchmarkWireHitQueryPipelined measures the same round-trip with 16
// requests in flight on one connection — the server's goroutine-per-request
// path and the client demux under pipelining.
func BenchmarkWireHitQueryPipelined(b *testing.B) {
	q := "SELECT SUM(price), COUNT(*) FROM t WHERE qty BETWEEN 10 AND 30"
	cl, _ := benchServer(b, []string{q})
	const lanes = 16
	b.ResetTimer()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < b.N; i += lanes {
				if _, err := cl.Query(q); err != nil {
					b.Error(err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
}
