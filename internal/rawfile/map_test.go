package rawfile_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"recache/internal/csvio"
	"recache/internal/expr"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/rawfile"
	"recache/internal/store"
	"recache/internal/value"
)

// scanner is every access path of a raw-file provider.
type scanner interface {
	provider
	plan.PushdownScanner
	plan.ColumnAppender
}

// openFormat opens path in the named format under schema, returning the
// provider and the File it embeds.
func openFormat(t *testing.T, name, path string, schema *value.Type) (scanner, *rawfile.File) {
	t.Helper()
	if name == "csv" {
		p, err := csvio.New(path, schema, csvio.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p, p.File
	}
	p, err := jsonio.New(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.File
}

// countingFormat counts the Map calls of the format it wraps.
type countingFormat struct {
	rawfile.Format
	maps atomic.Int64
}

func (c *countingFormat) Map(data []byte, from int, recStart []int64, fieldOff []uint32) ([]int64, []uint32, error) {
	c.maps.Add(1)
	return c.Format.Map(data, from, recStart, fieldOff)
}

// TestColdAccessMapsOnce: goroutines racing through every access path of a
// fresh File map it once between them; a Refresh over an append maps the
// tail once, one over a rewrite leaves the next access to map the new file
// once, and one over an unchanged file maps nothing.
func TestColdAccessMapsOnce(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			const n = 200
			x := newFixture(t, f, n)
			// Reopened under the flat schema, which the typed kernel reads.
			p, file := openFormat(t, f.name, x.path, value.TRecord(flat...))
			x.p = p
			cf := &countingFormat{}
			rawfile.WrapFormat(file, func(inner rawfile.Format) rawfile.Format {
				cf.Format = inner
				return cf
			})
			pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpGe, expr.C("k"), expr.L(n/2)), p.Schema())
			nop := func(value.Value, int64, func() error) error { return nil }
			access := []func() error{
				func() error { return p.Scan(nil, nop) },
				func() error { _, err := p.ScanPushdown(pd, nil, nop); return err },
				func() error { return p.ScanOffsets([]int64{0}, nil, nop) },
				func() error {
					epoch, _ := p.Version()
					_, err := p.AppendColumns(epoch, []int64{0}, store.NewColumns(p.Schema()), nil)
					return err
				},
				func() error { p.Version(); return nil },
				func() error { return p.ScanFrom(0, nil, nop) },
			}
			burst := func(what string, want int64) {
				t.Helper()
				var wg sync.WaitGroup
				for i := 0; i < 3*len(access); i++ {
					wg.Add(1)
					go func(access func() error) {
						defer wg.Done()
						if err := access(); err != nil {
							t.Error(err)
						}
					}(access[i%len(access)])
				}
				wg.Wait()
				if got := cf.maps.Load(); got != want {
					t.Fatalf("%s: %d Map calls, want %d", what, got, want)
				}
			}
			burst("cold burst", 1)
			x.append(f.records(n, n+10))
			x.refresh(plan.FileAppended, 1)
			burst("after an append", 2)
			x.refresh(plan.FileUnchanged, 1)
			burst("after an unchanged refresh", 2)
			if err := os.WriteFile(x.path, []byte(f.records(0, 5)), 0o644); err != nil {
				t.Fatal(err)
			}
			x.refresh(plan.FileRewritten, 2)
			burst("after a rewrite", 3)
			if got := p.NumRecords(); got != 5 {
				t.Fatalf("NumRecords = %d, want 5", got)
			}
		})
	}
}

// TestNonRecordOffsetsFail: an offset at which no record starts is an error
// on every offset path, on a fresh File and on a scanned one alike — never
// bytes read as a record from the middle of one.
func TestNonRecordOffsetsFail(t *testing.T) {
	schema := value.TRecord(value.F("a", value.TInt), value.F("b", value.TInt), value.F("c", value.TInt))
	for _, c := range []struct {
		name, data string
		inner      string // a record's worth of fields inside the record
	}{
		{"csv", "10|20|30|40\n", "20|30|40"},
		{"json", `{"a":1,"b":2,"c":3,"x":{"a":4,"b":5,"c":6}}` + "\n", `{"a":4`},
	} {
		for _, scanned := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "data")
			if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
				t.Fatal(err)
			}
			p, _ := openFormat(t, c.name, path, schema)
			nop := func(value.Value, int64, func() error) error { return nil }
			if scanned {
				if err := p.Scan(nil, nop); err != nil {
					t.Fatal(err)
				}
			}
			epoch, _ := p.Version()
			inner := int64(strings.Index(c.data, c.inner))
			for _, off := range []int64{inner, 1, -1, int64(len(c.data))} {
				offs := []int64{0, off}
				if err := p.ScanOffsets(offs, nil, nop); err == nil {
					t.Errorf("%s (scanned=%v): ScanOffsets at %d succeeded", c.name, scanned, off)
				}
				if err := p.ScanOffsetsAt(epoch, offs, nil, nop); err == nil {
					t.Errorf("%s (scanned=%v): ScanOffsetsAt at %d succeeded", c.name, scanned, off)
				}
				if _, err := p.AppendColumns(epoch, offs, store.NewColumns(schema), nil); err == nil {
					t.Errorf("%s (scanned=%v): AppendColumns at %d succeeded", c.name, scanned, off)
				}
			}
		}
	}
}
