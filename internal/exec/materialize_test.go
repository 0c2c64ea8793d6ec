package exec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recache/internal/cache"
	"recache/internal/csvio"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// hookSink collects the id column and runs a hook after the n-th row.
type hookSink struct {
	ids  []int64
	n    int
	hook func()
}

func (s *hookSink) Row(row []value.Value) error {
	s.ids = append(s.ids, row[0].I)
	if len(s.ids) == s.n {
		s.hook()
	}
	return nil
}

func (s *hookSink) Batch([]*store.Vec, []int32) error { return fmt.Errorf("a miss emits rows") }

// TestTypedBuildAbandonedOnEpochBump: a typed build decodes its admitted
// records a chunk at a time, pinned to the file epoch it started in. A
// rewrite landing between two chunks fails the next one with
// ErrEpochChanged; that abandons the build — nothing admitted, the slot
// released — while the query still answers from the snapshot it is scanning.
func TestTypedBuildAbandonedOnEpochBump(t *testing.T) {
	const records = 3*buildChunk + 100
	var data strings.Builder
	for i := 0; i < records; i++ {
		fmt.Fprintf(&data, "%d|%d|%d.5|n%d\n", i, i%50, i%9, i)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte(data.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := value.TRecord(value.F("id", value.TInt), value.F("qty", value.TInt),
		value.F("price", value.TFloat), value.F("name", value.TString))
	prov, err := csvio.New(path, schema, csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := &plan.Dataset{Name: "t", Format: plan.FormatCSV, Provider: prov}
	mk := func() plan.Node {
		sel := &plan.Select{Pred: expr.Cmp(expr.OpGe, expr.C("qty"), expr.L(0)), Child: &plan.Scan{DS: ds}}
		proj, err := plan.NewProject([]expr.Expr{expr.C("id")}, []string{"id"}, sel)
		if err != nil {
			t.Fatal(err)
		}
		return proj
	}
	needed := map[string][]string{"t": {"id", "qty"}}
	deps := func(m *cache.Manager) Deps {
		return Deps{Manager: m, Needed: map[string][]value.Path{"t": {{"id"}, {"qty"}}}}
	}
	building := func(root plan.Node) bool {
		mat, ok := root.(*plan.Project).Child.(*plan.Materialize)
		return ok && mat.Spec != nil
	}

	m := mgr(cache.Config{Admission: cache.AlwaysEager})
	tx := m.Begin()
	root := tx.Rewrite(mk(), needed)
	if !building(root) {
		t.Fatalf("the miss does not build:\n%s", plan.Explain(root))
	}
	// One chunk is in the build when the file is rewritten under it.
	sink := &hookSink{n: buildChunk + buildChunk/2, hook: func() {
		if err := os.WriteFile(path, []byte("1|1|1.5|rewritten\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if rep, err := prov.Refresh(); err != nil || rep.Status != plan.FileRewritten {
			t.Fatalf("Refresh = %+v, %v, want a rewrite", rep, err)
		}
	}}
	stats, err := RunInto(root, deps(m), sink)
	if err != nil {
		t.Fatalf("the query failed with its build: %v", err)
	}
	if len(sink.ids) != records || sink.ids[records-1] != records-1 {
		t.Fatalf("answered %d rows, want the %d of the snapshot the scan started on", len(sink.ids), records)
	}
	if stats.CacheBuildNanos == 0 {
		t.Error("CacheBuildNanos = 0: the chunks decoded before the rewrite are caching time")
	}
	if st := m.Stats(); st.Inserted != 0 {
		t.Errorf("Inserted = %d, want 0: the build spans two file epochs", st.Inserted)
	}
	// The abandoned build gave its slot back before the transaction ended:
	// the next miss on the key builds instead of scanning raw beside it.
	tx2 := m.Begin()
	if root2 := tx2.Rewrite(mk(), needed); !building(root2) {
		t.Errorf("the build slot is still held:\n%s", plan.Explain(root2))
	}
	tx2.Close()
	tx.Close()
	if st := m.Stats(); st.OpenTxns != 0 {
		t.Errorf("OpenTxns = %d, want 0", st.OpenTxns)
	}
}
