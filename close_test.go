package recache

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"recache/internal/value"
)

// Close must wait for every in-flight query, reject late arrivals with
// ErrClosed, and leave no transaction open. Run under -race this also
// checks the closed-flag / WaitGroup ordering.
func TestCloseDrainsInFlight(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	const workers = 8
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		rejected  atomic.Int64
	)
	errCh := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				lo := (w*7 + i) % 40
				q := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE qty BETWEEN %d AND %d", lo, lo+10)
				res, err := eng.Query(q)
				switch {
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
					return
				case err != nil:
					errCh <- err
					return
				}
				if got, want := res.Rows[0][0].(int64), countQtyBetween(lo, lo+10); got != want {
					errCh <- fmt.Errorf("count(%d..%d) = %d, want %d", lo, lo+10, got, want)
					return
				}
				completed.Add(1)
			}
		}(w)
	}
	close(start)
	// Let the workers get queries genuinely in flight, then shut down
	// concurrently with them.
	for completed.Load() == 0 {
		runtime.Gosched()
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if completed.Load() == 0 {
		t.Fatal("no query completed before Close")
	}
	if s := eng.CacheStats(); s.OpenTxns != 0 {
		t.Fatalf("OpenTxns = %d after Close, want 0", s.OpenTxns)
	}
	if _, err := eng.Query("SELECT COUNT(*) FROM t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close: err = %v, want ErrClosed", err)
	}
	if _, err := eng.QueryColumnar("SELECT COUNT(*) FROM t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("columnar query after Close: err = %v, want ErrClosed", err)
	}
	// Idempotent: a second Close is a no-op, not a deadlock or panic.
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// QueryColumnar must produce exactly the rows Query does, just held in a
// columnar batch instead of boxed slices.
func TestQueryColumnarParity(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	queries := []string{
		"SELECT COUNT(*) FROM t WHERE qty BETWEEN 15 AND 45",
		"SELECT id, qty, price, name FROM t WHERE qty >= 20",
		"SELECT SUM(price), COUNT(*) FROM t",
		"SELECT name FROM t WHERE name = 'cc'",
		"SELECT okey, total FROM orders WHERE total > 150",
	}
	for _, q := range queries {
		want, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: Query: %v", q, err)
		}
		br, err := eng.QueryColumnar(q)
		if err != nil {
			t.Fatalf("%s: QueryColumnar: %v", q, err)
		}
		if !reflect.DeepEqual(br.Columns, want.Columns) {
			t.Fatalf("%s: columns %v, want %v", q, br.Columns, want.Columns)
		}
		var rows [][]any
		err = br.Store.ScanNested(func(rec value.Value) error {
			rows = append(rows, toNative(rec.L))
			return nil
		})
		if err != nil {
			t.Fatalf("%s: scan batch: %v", q, err)
		}
		if len(rows) == 0 {
			rows = nil
		}
		var wantRows [][]any
		if len(want.Rows) > 0 {
			wantRows = want.Rows
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("%s: batch rows %v, want %v", q, rows, wantRows)
		}
		if br.Stats.Rows != want.Stats.Rows {
			t.Fatalf("%s: stats rows %d, want %d", q, br.Stats.Rows, want.Stats.Rows)
		}
	}
}
