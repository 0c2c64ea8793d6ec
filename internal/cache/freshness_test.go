package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recache/internal/csvio"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// lineitemRows renders lineitem-shaped CSV rows [from, to): nine numeric
// columns and a short string, l_quantity cycling through 1..50.
func lineitemRows(from, to int) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d.%02d|0.0%d|0.0%d|%d|%s\n",
			i/4, i*7%20000, i%100, i%4+1, i%50+1, i*13%90000, i%100, i%10, i%9, 8000+i%2500,
			[]string{"AIR", "MAIL", "SHIP", "TRUCK", "RAIL"}[i%5])
	}
	return b.String()
}

// BenchmarkTailExtend times one catch-up of an entry over an appended
// tail: Manager.Resident reading the 100 rows appended to a 20 000-row
// lineitem-shaped CSV and extending the entry of a select that keeps 80 %
// of them. eager: a RAM entry's committed extension, the tail's chunk
// linked behind the payload's; lazy: the tail's offsets appended; disk: a
// spilled entry's private catch-up under a query's pin, of the two leaves
// an aggregate over l_extendedprice filtered on l_quantity scans, the
// tail's chunk linked behind the views of the spill file's mapping. A RAM
// entry is put back to its pre-append payload between iterations, outside
// the timer's concern: a few pointer stores under the manager lock. A disk
// hit changes nothing, so every iteration catches the same file up again.
func BenchmarkTailExtend(b *testing.B) {
	const base, tail = 20_000, 100
	schema := value.TRecord(
		value.F("l_orderkey", value.TInt), value.F("l_partkey", value.TInt),
		value.F("l_suppkey", value.TInt), value.F("l_linenumber", value.TInt),
		value.F("l_quantity", value.TInt), value.F("l_extendedprice", value.TFloat),
		value.F("l_discount", value.TFloat), value.F("l_tax", value.TFloat),
		value.F("l_shipdate", value.TInt), value.F("l_shipmode", value.TString),
	)
	pred := expr.Cmp(expr.OpLe, expr.C("l_quantity"), expr.L(40))
	for _, name := range []string{"eager", "lazy", "disk"} {
		b.Run(name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "lineitem.csv")
			if err := os.WriteFile(path, []byte(lineitemRows(0, base)), 0o644); err != nil {
				b.Fatal(err)
			}
			prov, err := csvio.New(path, schema, csvio.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ds := &plan.Dataset{Name: "lineitem", Format: plan.FormatCSV, Provider: prov}
			st, offsets := buildOver(b, prov, pred)
			epoch, covered := prov.Version()
			cfg := Config{Admission: AlwaysEager}
			if name == "disk" {
				cfg.SpillDir = b.TempDir()
			}
			m := NewManager(cfg)
			spec := &BuildSpec{Manager: m, Dataset: ds, Pred: pred, PredCanon: pred.Canonical(),
				Ranges: &expr.RangeSet{}, FileEpoch: epoch, Covered: covered}
			mode := Eager
			if name == "lazy" {
				mode, st = Lazy, nil
			} else {
				offsets = nil
			}
			e := m.CompleteBuild(spec, st, offsets, mode, 1e9, 1e9)
			if name == "disk" {
				m.mu.Lock()
				queued := m.queueSpillLocked(e)
				m.mu.Unlock()
				if m.drainSpills(); !queued || !e.diskOnly() {
					b.Fatal("the entry did not spill")
				}
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteString(lineitemRows(base, base+tail)); err != nil {
				b.Fatal(err)
			}
			f.Close()
			if rep, err := prov.Refresh(); err != nil || rep.Status != plan.FileAppended {
				b.Fatalf("refresh: %+v, %v", rep, err)
			}
			if name == "disk" {
				tx := m.Begin() // a query's pin, as every disk hit holds
				defer tx.Close()
				if _, ok := tx.Rewrite(&plan.Select{Child: &plan.Scan{DS: ds}, Pred: pred},
					map[string][]string{"lineitem": {"l_quantity"}}).(*plan.CachedScan); !ok {
					b.Fatal("expected a disk hit")
				}
			}
			want := base*4/5 + tail*4/5
			leaves := store.AllLeaves(schema)
			if name == "disk" {
				leaves = store.Leaves{Cols: []int{4, 5}} // l_quantity, l_extendedprice
			}
			b.ReportAllocs()
			for b.Loop() {
				if name != "disk" {
					m.mu.Lock()
					before := e.SizeBytes()
					e.Store, e.Offsets, e.CoveredBytes = st, offsets, covered
					m.total += e.SizeBytes() - before
					m.mu.Unlock()
				}
				_, got, offs, err := m.Resident(e, leaves)
				switch {
				case err != nil:
					b.Fatal(err)
				case mode == Eager && got.NumRecords() != want, mode == Lazy && len(offs) != want:
					b.Fatalf("the extended entry does not hold the %d passing records", want)
				}
			}
		})
	}
}

// buildOver builds pred's eager payload over prov, and its offsets, the
// setup of a benchmark.
func buildOver(b *testing.B, prov plan.ScanProvider, pred expr.Expr) (store.Store, []int64) {
	p, err := expr.CompilePredicate(pred, prov.Schema())
	if err != nil {
		b.Fatal(err)
	}
	bld, err := store.NewBuilder(store.LayoutParquet, prov.Schema())
	if err != nil {
		b.Fatal(err)
	}
	var offsets []int64
	err = prov.Scan(nil, func(rec value.Value, off int64, _ func() error) error {
		if !p(rec.L) {
			return nil
		}
		offsets = append(offsets, off)
		return bld.Add(value.VRecord(rec.L...))
	})
	if err != nil {
		b.Fatal(err)
	}
	return bld.Finish(), offsets
}
