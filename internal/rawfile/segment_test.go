package rawfile_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"recache/internal/csvio"
	"recache/internal/jsonio"
	"recache/internal/rawfile"
	"recache/internal/store"
	"recache/internal/value"
)

// segmentFormats are the Files whose formats a segmented map is held to the
// serial one under: CSV with and without a header, and JSON.
func segmentFormats(t testing.TB) map[string]*rawfile.File {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	csv, err := csvio.New(path, value.TRecord(flat...), csvio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	header, err := csvio.New(path, value.TRecord(flat...), csvio.Options{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	json, err := jsonio.New(path, jsonSchema)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*rawfile.File{"csv": csv.File, "csv-header": header.File, "json": json.File}
}

// sameMap checks that f maps data in k segments exactly as it does serially:
// the same record starts, field offsets and error text.
func sameMap(t *testing.T, f *rawfile.File, data []byte, k int) {
	t.Helper()
	wantStart, wantOff, wantErr := rawfile.MapSegments(f, data, 1)
	gotStart, gotOff, gotErr := rawfile.MapSegments(f, data, k)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("k=%d: error %v, serial %v", k, gotErr, wantErr)
	}
	if !slices.Equal(gotStart, wantStart) || !slices.Equal(gotOff, wantOff) {
		t.Fatalf("k=%d: %d records / %d offsets, serial %d / %d", k, len(gotStart), len(gotOff), len(wantStart), len(wantOff))
	}
}

// TestSegmentedMapMatchesSerial: however a file is cut into segments, the
// map is the serial one — also where a cut misses a record boundary (a
// pretty-printed record, a raw newline inside a string) and where a record
// is malformed, whose error is the serial first error.
func TestSegmentedMapMatchesSerial(t *testing.T) {
	csvRecs := formats[0].records(0, 3000)
	jsonRecs := formats[1].records(0, 3000)
	var pretty, rawNL, spaced strings.Builder
	for k := range 3000 {
		fmt.Fprintf(&pretty, "{\n  \"k\": %d,\n  \"price\": %d.5,\n  \"name\": \"n%d\"\n}\n", k, k, k)
		fmt.Fprintf(&rawNL, "{\"k\":%d,\"name\":\"n\n%d\"}\n", k, k)
		fmt.Fprintf(&spaced, `{"k":%d,"name":"n%d"} `, k, k)
	}
	at := func(s string, frac float64, bad string) string {
		i := strings.IndexByte(s[int(float64(len(s))*frac):], '\n') + int(float64(len(s))*frac) + 1
		return s[:i] + bad + s[i:]
	}
	for _, c := range []struct {
		name, format, data string
	}{
		{"ndjson", "json", jsonRecs},
		{"pretty", "json", pretty.String()},
		{"raw-newline-in-string", "json", rawNL.String()},
		{"no-newline", "json", spaced.String()},
		{"malformed-first", "json", at(jsonRecs, 0.01, formats[1].malformed)},
		{"malformed-last", "json", at(jsonRecs, 0.97, formats[1].malformed)},
		{"csv", "csv", csvRecs},
		{"csv-header", "csv-header", "k|price|name\n" + csvRecs},
		{"csv-no-newline", "csv", strings.TrimSuffix(formats[0].record(1), "\n")},
		{"csv-unterminated", "csv", strings.TrimSuffix(csvRecs, "\n")},
		{"csv-malformed-first", "csv", at(csvRecs, 0.01, formats[0].malformed)},
		{"csv-malformed-last", "csv-header", "k|price|name\n" + at(csvRecs, 0.97, formats[0].malformed)},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := segmentFormats(t)[c.format]
			for _, k := range []int{2, 3, 4, 7, 16} {
				sameMap(t, f, []byte(c.data), k)
			}
		})
	}
	// A load derives its segment count from the size: one segment below
	// segmentMin, several above it when there are Ps to map them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name string
		size int
		want int
	}{{"below", rawfile.SegmentMin - 1, 0}, {"above", 3*rawfile.SegmentMin + 1, 3}} {
		t.Run("size-"+c.name, func(t *testing.T) {
			if got := rawfile.SegmentCount(c.size); got != c.want {
				t.Fatalf("SegmentCount(%d) = %d, want %d", c.size, got, c.want)
			}
			for name, rec := range map[string]func(int) string{"csv": formats[0].record, "json": formats[1].record} {
				var b strings.Builder
				for k := 0; b.Len() < c.size; k++ {
					b.WriteString(rec(k))
				}
				sameMap(t, segmentFormats(t)[name], []byte(b.String()), rawfile.SegmentCount(b.Len()))
			}
		})
	}
}

// FuzzSegmentedMap: a map built in 2 + cut%7 segments is the serial map, in
// each format, for any bytes.
func FuzzSegmentedMap(f *testing.F) {
	f.Add([]byte(formats[0].records(0, 20)), uint8(1))
	f.Add([]byte(formats[1].records(0, 20)), uint8(3))
	f.Add([]byte("k|price|name\n1|1.5|a\n2|2.5\n3|3.5|c\n"), uint8(0))
	f.Add([]byte("{\"k\":1,\"name\":\"a\nb\"}\n{\"k\":2}\n{\n\"k\":3}\n"), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		for _, file := range segmentFormats(t) {
			sameMap(t, file, data, 2+int(cut)%7)
		}
	})
}

// TestColdAccessMapsOnceSegmented is TestColdAccessMapsOnce on a file above
// segmentMin: a cold burst over every access path publishes one snapshot,
// mapped once in as many Map calls as the file has segments.
func TestColdAccessMapsOnceSegmented(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			var b strings.Builder
			n := 0
			for ; b.Len() < 3*rawfile.SegmentMin; n++ {
				b.WriteString(f.record(n))
			}
			path := filepath.Join(t.TempDir(), "data")
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			p, file := openFormat(t, f.name, path, value.TRecord(flat...))
			cf := &countingFormat{}
			rawfile.WrapFormat(file, func(inner rawfile.Format) rawfile.Format {
				cf.Format = inner
				return cf
			})
			nop := func(value.Value, int64, func() error) error { return nil }
			access := []func() error{
				func() error { return p.Scan(nil, nop) },
				func() error { return p.ScanOffsets([]int64{0}, nil, nop) },
				func() error {
					epoch, _ := p.Version()
					_, err := p.AppendColumns(epoch, []int64{0}, store.NewColumns(p.Schema()), nil)
					return err
				},
				func() error { p.Version(); return nil },
			}
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
			if want := int64(rawfile.SegmentCount(b.Len())); want < 2 || cf.maps.Load() != want {
				t.Fatalf("%d Map calls for %d segments, want one per segment (and more than one)", cf.maps.Load(), want)
			}
			if got := p.NumRecords(); got != n {
				t.Fatalf("NumRecords = %d, want %d", got, n)
			}
		})
	}
}

// BenchmarkLoad is a fresh provider's first access to an ~8 MB file: read
// and map, in as many segments as the size and GOMAXPROCS give (MB/s).
func BenchmarkLoad(b *testing.B) {
	for _, f := range formats {
		b.Run(f.name, func(b *testing.B) {
			var data strings.Builder
			for k := 0; data.Len() < 8<<20; k++ {
				data.WriteString(f.record(k))
			}
			path := filepath.Join(b.TempDir(), "data")
			if err := os.WriteFile(path, []byte(data.String()), 0o644); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(data.Len()))
			b.ResetTimer()
			for range b.N {
				p, err := f.open(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, covered := p.Version(); covered != int64(data.Len()) {
					b.Fatalf("covered %d of %d bytes", covered, data.Len())
				}
			}
		})
	}
}
