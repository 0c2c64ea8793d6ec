package cache

import (
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
)

// fakeFleet is a scripted cache.Fleet. Both methods call back into the
// manager, which deadlocks if the manager ever calls them under its lock.
type fakeFleet struct {
	m          *Manager
	deny       bool
	released   int
	replicated []string
}

func (f *fakeFleet) Materialize(dataset, predCanon string) (release func(), ok bool) {
	f.m.Stats()
	if f.deny {
		return nil, false
	}
	return func() { f.released++ }, true
}

func (f *fakeFleet) Replicate(dataset, predCanon string, st store.Store) {
	f.m.Stats()
	f.m.Peek(&plan.Scan{DS: f.m.Entries()[0].Dataset}, nil)
	f.replicated = append(f.replicated, predCanon)
}

// The Fleet contract as the manager keeps it (solo behaviour — a nil Fleet —
// is what every other test in this package runs): a denied lease runs the
// miss raw, admits nothing and hands back the local build slot; a granted
// lease is released exactly once at Txn.Close, whether the build completed
// or the query failed before it; Replicate sees each eager admission once,
// only on a manager with a disk tier, and never a lazy one.
func TestFleetContract(t *testing.T) {
	ds := flatDataset("t")
	pred := expr.Between(expr.C("a"), expr.L(2), expr.L(15))
	for _, spillDir := range []string{"", t.TempDir()} {
		fl := &fakeFleet{deny: true}
		m := NewManager(Config{Admission: AlwaysEager, SpillDir: spillDir, Fleet: fl})
		fl.m = m

		tx := m.Begin()
		if _, raw := tx.Rewrite(selOver(ds, pred), nil).(*plan.Select); !raw {
			t.Fatal("denied miss did not fall back to the raw Select")
		}
		if len(m.building) != 0 {
			t.Fatalf("denied miss kept its local build slot: %v", m.building)
		}
		tx.Close()
		if st := m.Stats(); st.Inserted != 0 || fl.released != 0 {
			t.Fatalf("denied miss: inserted %d, released %d; want 0, 0", st.Inserted, fl.released)
		}

		// Granted, but the query fails before building: the Txn closes
		// without CompleteBuild and must still release.
		fl.deny = false
		tx = m.Begin()
		if _, ok := tx.Rewrite(selOver(ds, pred), nil).(*plan.Materialize); !ok {
			t.Fatal("granted miss did not plan a build")
		}
		tx.Close()
		tx.Close()
		if fl.released != 1 {
			t.Fatalf("failed query released its lease %d times, want 1", fl.released)
		}

		// Granted and built: released at Close, not at admission.
		tx = m.Begin()
		spec := tx.Rewrite(selOver(ds, pred), nil).(*plan.Materialize).Spec.(*BuildSpec)
		if m.CompleteBuild(spec, selectStore(t, m, ds, pred), nil, Eager, 1000, 500) == nil {
			t.Fatal("CompleteBuild returned nil")
		}
		if fl.released != 1 {
			t.Fatalf("lease released at admission (%d releases), want it held until Close", fl.released)
		}
		tx.Close()
		if fl.released != 2 {
			t.Fatalf("built query released its lease %d times in all, want 2", fl.released)
		}

		lazy := expr.Between(expr.C("a"), expr.L(16), expr.L(19))
		tx = m.Begin()
		spec = tx.Rewrite(selOver(ds, lazy), nil).(*plan.Materialize).Spec.(*BuildSpec)
		if m.CompleteBuild(spec, nil, []int64{0}, Lazy, 1000, 10) == nil {
			t.Fatal("lazy CompleteBuild returned nil")
		}
		tx.Close()

		want := 0
		if spillDir != "" {
			want = 1
		}
		if len(fl.replicated) != want || (want == 1 && fl.replicated[0] != pred.Canonical()) {
			t.Fatalf("spill dir %q: replicated %v, want %d push (the eager entry only)", spillDir, fl.replicated, want)
		}
	}
}
