package rawfile_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"recache/internal/csvio"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/value"
)

// provider is what the cache and executor use of a raw-file provider's
// lifecycle; both formats get it from the embedded *rawfile.File.
type provider interface {
	plan.ScanProvider
	plan.RefreshableProvider
	plan.EpochScanner
}

// format is one row of the conformance table: how to open a provider and
// how to spell records. Every record starts (k int, price float, name
// string) with price = k + 0.5 and name = "n<k>", so any scan result can be
// checked from the keys alone.
type format struct {
	name      string
	open      func(path string) (provider, error)
	record    func(k int) string        // one complete record, newline-terminated
	extra     func(k int) []value.Value // the record's fields past the common three
	malformed string                    // an appended line Map must reject
}

var flat = []value.Field{
	value.F("k", value.TInt),
	value.F("price", value.TFloat),
	value.F("name", value.TString),
}

// The JSON records also carry a nested list (mapped by skipping, decoded by
// the schema-guided parser) and an unknown key whose value holds brackets
// inside a string.
var jsonSchema = value.TRecord(append(flat[:3:3],
	value.F("items", value.TList(value.TRecord(value.F("q", value.TInt)))))...)

var formats = []format{
	{
		name: "csv",
		open: func(path string) (provider, error) {
			return csvio.New(path, value.TRecord(flat...), csvio.Options{})
		},
		record:    func(k int) string { return fmt.Sprintf("%d|%d.5|n%d\n", k, k, k) },
		extra:     func(int) []value.Value { return nil },
		malformed: "7|too few fields\n",
	},
	{
		name: "json",
		open: func(path string) (provider, error) { return jsonio.New(path, jsonSchema) },
		record: func(k int) string {
			return fmt.Sprintf(`{"k":%d,"price":%d.5,"x":{"y":[1,{"z":"]}"}]},"name":"n%d","items":[{"q":%d},{}]}`+"\n", k, k, k, k)
		},
		extra: func(k int) []value.Value {
			return []value.Value{value.VList(value.VRecord(value.VInt(int64(k))), value.VRecord(value.VNull))}
		},
		malformed: `{"k":oops}` + "\n",
	},
}

func (f format) records(from, to int) string {
	var b strings.Builder
	for k := from; k < to; k++ {
		b.WriteString(f.record(k))
	}
	return b.String()
}

func (f format) row(k int) []value.Value {
	return append([]value.Value{
		value.VInt(int64(k)), value.VFloat(float64(k) + 0.5), value.VString(fmt.Sprintf("n%d", k)),
	}, f.extra(k)...)
}

func (f format) rows(from, to int) [][]value.Value {
	var out [][]value.Value
	for k := from; k < to; k++ {
		out = append(out, f.row(k))
	}
	return out
}

type fixture struct {
	t    *testing.T
	path string
	p    provider
}

// newFixture writes records [0,n) and opens a provider over them.
func newFixture(t *testing.T, f format, n int) *fixture {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data")
	if err := os.WriteFile(path, []byte(f.records(0, n)), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := f.open(path)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, path: path, p: p}
}

func (x *fixture) append(s string) {
	x.t.Helper()
	fd, err := os.OpenFile(x.path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		x.t.Fatal(err)
	}
	if _, err := fd.WriteString(s); err != nil {
		x.t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		x.t.Fatal(err)
	}
}

func (x *fixture) refresh(want plan.FreshnessStatus, wantEpoch uint64) plan.FreshnessReport {
	x.t.Helper()
	rep, err := x.p.Refresh()
	if err != nil || rep.Status != want || rep.Epoch != wantEpoch {
		x.t.Fatalf("Refresh = %+v, %v; want %s at epoch %d", rep, err, want, wantEpoch)
	}
	return rep
}

// collector gathers copies of the streamed rows and their offsets.
type collector struct {
	rows [][]value.Value
	offs []int64
}

func (c *collector) fn(rec value.Value, off int64, _ func() error) error {
	c.rows = append(c.rows, append([]value.Value(nil), rec.L...))
	c.offs = append(c.offs, off)
	return nil
}

func (x *fixture) scan() collector {
	x.t.Helper()
	var c collector
	if err := x.p.Scan(nil, c.fn); err != nil {
		x.t.Fatal(err)
	}
	return c
}

func (x *fixture) version(wantEpoch uint64, wantCovered int) {
	x.t.Helper()
	if ep, cov := x.p.Version(); ep != wantEpoch || cov != int64(wantCovered) {
		x.t.Fatalf("Version = (%d, %d), want (%d, %d)", ep, cov, wantEpoch, wantCovered)
	}
}

func wantRows(t *testing.T, what string, got, want [][]value.Value) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// TestLifecycle is the single conformance suite for the snapshot / refresh
// / positional-map lifecycle, run against every format.
func TestLifecycle(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, f format)
	}{
		{"RefreshBeforeLoadIsUnchanged", func(t *testing.T, f format) {
			x := newFixture(t, f, 3)
			rep := x.refresh(plan.FileUnchanged, 0)
			if rep.Covered != 0 {
				t.Fatalf("unloaded provider reports coverage: %+v", rep)
			}
		}},
		{"AppendExtends", func(t *testing.T, f format) {
			x := newFixture(t, f, 3)
			x.scan() // load and map
			base := len(f.records(0, 3))
			x.version(1, base)

			x.append(f.records(3, 5))
			rep := x.refresh(plan.FileAppended, 1)
			if tail := int64(len(f.records(3, 5))); rep.TailBytes != tail || rep.Covered != int64(base)+tail {
				t.Fatalf("Refresh covered/tail inconsistent: %+v (base %d, tail %d)", rep, base, tail)
			}
			x.version(1, base+len(f.records(3, 5)))
			if n := x.p.NumRecords(); n != 5 {
				t.Fatalf("NumRecords after append = %d, want 5", n)
			}
			c := x.scan()
			wantRows(t, "rows after append", c.rows, f.rows(0, 5))

			// The positional map must cover the tail: replay of the appended
			// offsets at the same epoch parses the new records.
			var replay collector
			if err := x.p.ScanOffsetsAt(1, c.offs[3:], nil, replay.fn); err != nil {
				t.Fatal(err)
			}
			wantRows(t, "offset replay of tail", replay.rows, f.rows(3, 5))
		}},
		{"ScanFromStreamsOnlyTail", func(t *testing.T, f format) {
			// The tail comes off the extended positional map.
			x := newFixture(t, f, 3)
			_, cov0 := x.p.Version()
			x.append(f.records(3, 5))
			x.refresh(plan.FileAppended, 1)
			var tail collector
			needed := []value.Path{value.ParsePath("k")}
			err := x.p.ScanFrom(cov0, needed, func(rec value.Value, off int64, complete func() error) error {
				if off < cov0 {
					t.Fatalf("ScanFrom emitted pre-tail offset %d", off)
				}
				if rec.L[0].Kind != value.Int {
					t.Fatalf("needed field not decoded: %v", rec.L)
				}
				if err := complete(); err != nil {
					return err
				}
				return tail.fn(rec, off, nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, "ScanFrom tail", tail.rows, f.rows(3, 5))
		}},
		{"RewriteBumpsEpoch", func(t *testing.T, f format) {
			x := newFixture(t, f, 3)
			c := x.scan()
			if err := os.WriteFile(x.path, []byte(f.record(9)), 0o644); err != nil {
				t.Fatal(err)
			}
			x.refresh(plan.FileRewritten, 2)
			if n := x.p.NumRecords(); n != -1 {
				t.Fatalf("NumRecords after rewrite = %d, want -1 until the next access", n)
			}

			// Old-epoch offsets are dead: the epoch-checked replay refuses them.
			err := x.p.ScanOffsetsAt(1, c.offs, nil, func(value.Value, int64, func() error) error { return nil })
			if !errors.Is(err, plan.ErrEpochChanged) {
				t.Fatalf("ScanOffsetsAt(stale epoch) err = %v, want ErrEpochChanged", err)
			}
			wantRows(t, "rows after rewrite", x.scan().rows, f.rows(9, 10))
			x.version(2, len(f.record(9)))
		}},
		{"TornTailWaitsForNewline", func(t *testing.T, f format) {
			x := newFixture(t, f, 3)
			x.scan()
			base := len(f.records(0, 3))

			// A writer mid-append: the tail has no terminating newline yet.
			// The provider must not ingest the torn record — it reports
			// Unchanged and re-checks on the next access.
			rec := f.record(3)
			x.append(rec[:len(rec)/2])
			x.refresh(plan.FileUnchanged, 1)
			x.version(1, base)
			wantRows(t, "rows over a torn tail", x.scan().rows, f.rows(0, 3))

			x.append(rec[len(rec)/2:])
			x.refresh(plan.FileAppended, 1)
			wantRows(t, "rows after completed append", x.scan().rows, f.rows(0, 4))
		}},
		{"MalformedTailResets", func(t *testing.T, f format) {
			// An appended record that fails to map cannot be ingested
			// incrementally; the provider falls back to a rewrite-style
			// reset so the next access reloads and reports the parse error
			// with context.
			x := newFixture(t, f, 3)
			x.scan()
			x.append(f.malformed)
			x.refresh(plan.FileRewritten, 2)
			if err := x.p.Scan(nil, func(value.Value, int64, func() error) error { return nil }); err == nil {
				t.Fatal("scan of a file with a malformed record succeeded")
			}
		}},
		{"ScanDuringExtensionsSeesItsSnapshot", func(t *testing.T, f format) {
			// Readers hold their snapshot lock-free while Refresh grows the
			// backing arrays in place past the published lengths. Each scan
			// must see exactly a prefix [0,n): every record whole and in
			// order, n no smaller than what was published when it started.
			const base, extra, readers = 64, 48, 3
			x := newFixture(t, f, base)
			x.scan()
			var published atomic.Int64
			published.Store(base)
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var needed []value.Path
					if r > 0 {
						needed = []value.Path{value.ParsePath("name")}
					}
					for stop := false; !stop; {
						select {
						case <-done:
							stop = true // one last scan over the final state
						default:
						}
						lo := published.Load()
						n := 0
						err := x.p.Scan(needed, func(rec value.Value, _ int64, complete func() error) error {
							if err := complete(); err != nil {
								return err
							}
							if !reflect.DeepEqual(rec.L, f.row(n)) {
								return fmt.Errorf("record %d = %v", n, rec.L)
							}
							n++
							return nil
						})
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						if int64(n) < lo || n > base+extra {
							t.Errorf("reader %d saw %d records, published %d before it started", r, n, lo)
							return
						}
					}
				}(r)
			}
			for k := base; k < base+extra; k++ {
				x.append(f.record(k))
				if rep, err := x.p.Refresh(); err != nil || rep.Status != plan.FileAppended {
					t.Errorf("Refresh = %+v, %v; want appended", rep, err)
					break
				}
				published.Store(int64(k + 1))
			}
			close(done)
			wg.Wait()
			if n := x.p.NumRecords(); n != base+extra {
				t.Fatalf("NumRecords = %d, want %d", n, base+extra)
			}
		}},
	}
	for _, f := range formats {
		for _, c := range cases {
			t.Run(f.name+"/"+c.name, func(t *testing.T) { c.run(t, f) })
		}
	}
}
