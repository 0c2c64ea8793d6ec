package cache

import (
	"sync"
	"testing"

	"recache/internal/eviction"
	"recache/internal/expr"
	"recache/internal/plan"
)

func selOver(ds *plan.Dataset, pred expr.Expr) *plan.Select {
	return &plan.Select{Pred: pred, Child: &plan.Scan{DS: ds}}
}

// A pinned entry that loses an eviction must not be freed until the last
// reader unpins: it leaves every lookup structure immediately but its bytes
// stay accounted (the store is still being scanned) until Txn.Close.
func TestTxnPinDefersEviction(t *testing.T) {
	ds := flatDataset("t")
	p1 := expr.Between(expr.C("a"), expr.L(2), expr.L(15))
	p2 := expr.Between(expr.C("a"), expr.L(0), expr.L(1))

	// Size the capacity so the second insert forces exactly one eviction.
	probe := NewManager(Config{Admission: AlwaysEager})
	s1 := buildEntry(t, probe, ds, p1).SizeBytes()
	s2 := buildEntry(t, probe, ds, p2).SizeBytes()

	m := NewManager(Config{Admission: AlwaysEager, Capacity: s1 + s2 - 1, Policy: eviction.LRU{}})
	e1 := buildEntry(t, m, ds, p1)

	tx := m.Begin()
	out := tx.Rewrite(selOver(ds, p1), map[string][]string{"t": {"a"}})
	if _, ok := out.(*plan.CachedScan); !ok {
		t.Fatalf("rewrite = %T, want CachedScan", out)
	}

	// Second entry: over capacity, LRU evicts e1 — but e1 is pinned.
	m.BeginQuery()
	buildEntry(t, m, ds, p2)

	if got := m.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := len(m.Entries()); got != 1 {
		t.Fatalf("live entries = %d, want 1 (e1 removed from lookup)", got)
	}
	if e, _ := m.lookupLocked(ds, p1, p1.Canonical(), true); e == e1 {
		t.Fatal("doomed entry still findable")
	}
	if got, want := m.Stats().TotalBytes, s1+s2; got != want {
		t.Fatalf("TotalBytes while pinned = %d, want %d (doomed bytes retained)", got, want)
	}

	tx.Close()
	if got, want := m.Stats().TotalBytes, s2; got != want {
		t.Fatalf("TotalBytes after unpin = %d, want %d", got, want)
	}
	tx.Close() // idempotent
}

// While one query's materializer is building an entry, a second query
// missing on the same (dataset, predicate) must scan raw rather than build
// a duplicate; abandoning the build (Txn.Close without CompleteBuild)
// frees the slot for later queries.
func TestTxnSingleFlight(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	ds := flatDataset("t")
	pred := expr.Between(expr.C("a"), expr.L(2), expr.L(15))

	tx1 := m.Begin()
	out1 := tx1.Rewrite(selOver(ds, pred), nil)
	mat, ok := out1.(*plan.Materialize)
	if !ok {
		t.Fatalf("first rewrite = %T, want Materialize", out1)
	}
	spec := mat.Spec.(*BuildSpec)
	if spec.SlotTx == 0 || spec.SlotKey == "" {
		t.Fatalf("spec did not reserve a build slot: %+v", spec)
	}

	tx2 := m.Begin()
	out2 := tx2.Rewrite(selOver(ds, pred), nil)
	if _, ok := out2.(*plan.Select); !ok {
		t.Fatalf("concurrent identical miss = %T, want raw Select (single-flight)", out2)
	}
	if got := m.Stats().Misses; got != 2 {
		t.Errorf("misses = %d, want 2 (the raw fallback still counts)", got)
	}
	tx2.Close()

	// Abandon tx1's build: the slot must be released.
	tx1.Close()
	tx3 := m.Begin()
	defer tx3.Close()
	if out3 := tx3.Rewrite(selOver(ds, pred), nil); out3 == nil {
		t.Fatal("nil rewrite")
	} else if _, ok := out3.(*plan.Materialize); !ok {
		t.Fatalf("rewrite after abandoned build = %T, want Materialize", out3)
	}
}

// Peek must show the same tree shapes as Rewrite without moving any state:
// counters, reuse accounting, policy state, pins, or build slots.
func TestPeekIsReadOnly(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	ds := flatDataset("t")
	pred := expr.Between(expr.C("a"), expr.L(2), expr.L(15))
	e := buildEntry(t, m, ds, pred)

	before := m.Stats()
	reuses := e.Reuses

	if out := m.Peek(selOver(ds, pred), map[string][]string{"t": {"a"}}); out == nil {
		t.Fatal("nil peek")
	} else if _, ok := out.(*plan.CachedScan); !ok {
		t.Fatalf("peek on hit = %T, want CachedScan", out)
	}
	cold := expr.Between(expr.C("a"), expr.L(16), expr.L(19))
	if out := m.Peek(selOver(ds, cold), nil); out == nil {
		t.Fatal("nil peek")
	} else if _, ok := out.(*plan.Materialize); !ok {
		t.Fatalf("peek on miss = %T, want Materialize", out)
	}

	if after := m.Stats(); after != before {
		t.Errorf("Peek changed stats: %+v -> %+v", before, after)
	}
	if e.Reuses != reuses {
		t.Errorf("Peek changed Reuses: %d -> %d", reuses, e.Reuses)
	}
	if e.pins != 0 {
		t.Errorf("Peek pinned the entry: pins = %d", e.pins)
	}
	if len(m.building) != 0 {
		t.Errorf("Peek reserved a build slot: %v", m.building)
	}
}

// The manager's bookkeeping must be race-free when hammered from many
// goroutines mixing hits, misses, and hand-built inserts (run with -race).
func TestManagerConcurrentBookkeeping(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, Capacity: 1 << 16})
	ds := flatDataset("t")
	hot := expr.Between(expr.C("a"), expr.L(2), expr.L(15))
	buildEntry(t, m, ds, hot)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := m.Begin()
				tx.Rewrite(selOver(ds, hot), map[string][]string{"t": {"a"}})
				_ = m.Stats()
				_ = m.Snapshot()
				tx.Close()
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.ExactHits != 8*50 {
		t.Errorf("exact hits = %d, want %d", st.ExactHits, 8*50)
	}
	if st.Queries != 8*50 {
		t.Errorf("queries = %d, want %d", st.Queries, 8*50)
	}
}
