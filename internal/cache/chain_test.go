package cache

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"recache/internal/expr"
	"recache/internal/store"
)

// chainedEntry admits an eager entry of every record over a growing file of
// base records, worth spilling, and extends it over one tail of each size
// in tails: its payload is then the chain of the built prefix and a chunk
// per tail (the merge rule keeps falling sizes apart).
func chainedEntry(t *testing.T, m *Manager, base int, tails ...int) (*Entry, *lifecycleModel) {
	t.Helper()
	x := newLifecycleModel(t, 1)
	x.m = m
	x.prov.grow(base - x.prov.NumRecords())
	x.prov.Refresh()
	epoch, covered := x.prov.Version()
	st, _ := x.build(nil)
	spec := &BuildSpec{Manager: m, Dataset: x.ds, PredCanon: "true", Ranges: &expr.RangeSet{},
		FileEpoch: epoch, Covered: covered}
	e := m.CompleteBuild(spec, st, nil, Eager, costly, costly/2)
	for _, n := range tails {
		x.prov.grow(n)
		x.prov.Refresh()
		if _, _, _, err := m.Resident(e, store.AllLeaves(x.ds.Schema())); err != nil {
			t.Fatal(err)
		}
	}
	return e, x
}

// TestChainedPayloadSpillAndExport: a payload extended in RAM is a chain of
// its built prefix and its tails' chunks. Its export (ExportPayloads) and
// its spill file are each one RCS stream, byte-identical to its
// compaction's — a build of all its records — and a disk hit reads the
// file back as that compaction.
func TestChainedPayloadSpillAndExport(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: t.TempDir()})
	e, x := chainedEntry(t, m, 60, 7, 3)
	if n := len(store.Chunks(e.Store)); n != 3 {
		t.Fatalf("the extended payload holds %d chunks, want 3", n)
	}
	compacted, _ := x.build(nil)
	var want bytes.Buffer
	if err := store.WriteParquet(&want, compacted); err != nil {
		t.Fatal(err)
	}
	exported := 0
	if err := m.ExportPayloads(func(_, _ string, payload []byte) error {
		exported++
		if !bytes.Equal(payload, want.Bytes()) {
			t.Error("the exported chain is not its compaction's stream")
		}
		return nil
	}); err != nil || exported != 1 {
		t.Fatalf("exported %d payloads: %v", exported, err)
	}
	spillNow(t, m, e)
	file, err := os.ReadFile(e.spillPath)
	if err != nil || !bytes.Equal(file, want.Bytes()) {
		t.Fatalf("the spilled chain is not its compaction's stream (%v)", err)
	}
	tx := m.Begin()
	defer tx.Close()
	tx.Rewrite(selOver(x.ds, nil), map[string][]string{"t": {"a", "c"}})
	_, st, _, err := m.Resident(e, store.AllLeaves(x.ds.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := store.WriteParquet(&got, st); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the disk hit does not read back the compaction (%v)", err)
	}
}

// TestChainScanDuringExtension: readers pin an entry and scan the chain
// Resident hands them while other readers extend it over tail after tail,
// committing chains whose chunks merge as they catch up. Chunks are never
// written once linked, so the race detector finds nothing, and every scan
// reads exactly the records of the payload it was handed: record i holds
// a = i % 20 and c = i / 2.
func TestChainScanDuringExtension(t *testing.T) {
	m := NewManager(Config{Admission: AlwaysEager})
	e, x := chainedEntry(t, m, 40)
	leaves := store.Leaves{Cols: []int{0, 1}}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int32, 16)
			for i := range 150 {
				if w == 0 && i%3 == 0 {
					x.prov.grow(1 + i%7)
					x.prov.Refresh()
				}
				tx := m.Begin()
				tx.Rewrite(selOver(x.ds, nil), map[string][]string{"t": {"a", "c"}})
				_, st, _, err := m.Resident(e, leaves)
				if err != nil {
					t.Error(err)
					tx.Close()
					return
				}
				cur, err := st.BatchCursor(false, leaves.Cols)
				if err != nil {
					t.Error(err)
					tx.Close()
					return
				}
				rec := 0
				for sel := cur.Next(buf); sel != nil; sel = cur.Next(buf) {
					for _, r := range sel {
						if a, c := cur.Cols[0].Ints[r], cur.Cols[1].Floats[r]; a != int64(rec%20) || c != float64(rec)/2 {
							t.Errorf("record %d of %d reads a=%d c=%v", rec, st.NumRecords(), a, c)
							tx.Close()
							return
						}
						rec++
					}
				}
				if rec != st.NumRecords() {
					t.Errorf("a scan read %d of %d records", rec, st.NumRecords())
				}
				tx.Close()
			}
		}()
	}
	wg.Wait()
	if s := m.Stats(); s.TailExtensions == 0 {
		t.Error("no extension ran beside the scans")
	}
}
