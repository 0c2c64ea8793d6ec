package csvio

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"recache/internal/expr"
	"recache/internal/rawfile/rawfiletest"
	"recache/internal/value"
)

func writeFile(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func testSchema() *value.Type {
	return value.TRecord(
		value.F("id", value.TInt),
		value.F("price", value.TFloat),
		value.F("name", value.TString),
	)
}

const testData = "1|10.5|alpha\n2|20.25|beta\n3|-7|gamma\n"

func collect(t *testing.T, p *Provider, needed []value.Path) ([][]value.Value, []int64) {
	t.Helper()
	var rows [][]value.Value
	var offs []int64
	err := p.Scan(needed, func(rec value.Value, off int64, _ func() error) error {
		rows = append(rows, append([]value.Value(nil), rec.L...))
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, offs
}

func TestScanAllFields(t *testing.T) {
	p, err := New(writeFile(t, testData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRecords() != -1 {
		t.Errorf("NumRecords before scan = %d, want -1", p.NumRecords())
	}
	rows, offs := collect(t, p, nil)
	want := [][]value.Value{
		{value.VInt(1), value.VFloat(10.5), value.VString("alpha")},
		{value.VInt(2), value.VFloat(20.25), value.VString("beta")},
		{value.VInt(3), value.VFloat(-7), value.VString("gamma")},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v", rows)
	}
	if offs[0] != 0 || offs[1] != 13 {
		t.Errorf("offsets = %v", offs)
	}
	if p.NumRecords() != 3 {
		t.Errorf("NumRecords = %d", p.NumRecords())
	}
}

func TestSelectiveParseUsesPositionalMap(t *testing.T) {
	p, err := New(writeFile(t, testData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, p, nil)
	// Second scan parses only "name": other fields come back null.
	rows, _ := collect(t, p, []value.Path{value.ParsePath("name")})
	if rows[0][0].Kind != value.Null || rows[0][2].S != "alpha" {
		t.Errorf("selective rows = %v", rows)
	}
	// Needed also honored by the first scan of a fresh provider.
	p2, _ := New(writeFile(t, testData), testSchema(), Options{})
	rows2, _ := collect(t, p2, []value.Path{value.ParsePath("id")})
	if rows2[1][0].I != 2 || rows2[1][2].Kind != value.Null {
		t.Errorf("first-scan selective rows = %v", rows2)
	}
}

func TestScanOffsets(t *testing.T) {
	p, err := New(writeFile(t, testData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, offs := collect(t, p, nil)
	var got [][]value.Value
	err = p.ScanOffsets([]int64{offs[2], offs[0]}, nil, func(rec value.Value, off int64, _ func() error) error {
		got = append(got, append([]value.Value(nil), rec.L...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].I != 3 || got[1][0].I != 1 {
		t.Errorf("ScanOffsets = %v", got)
	}
}

func TestScanOffsetsWithoutPositionalMap(t *testing.T) {
	p, err := New(writeFile(t, testData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]value.Value
	err = p.ScanOffsets([]int64{13}, nil, func(rec value.Value, off int64, _ func() error) error {
		got = append(got, append([]value.Value(nil), rec.L...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].I != 2 || got[0][2].S != "beta" {
		t.Errorf("got = %v", got)
	}
	if err := p.ScanOffsets([]int64{99999}, nil, func(value.Value, int64, func() error) error { return nil }); err == nil {
		t.Error("out-of-range offset should fail")
	}
}

func TestHeaderAndComma(t *testing.T) {
	p, err := New(writeFile(t, "id,price,name\n5,1.5,x\n"), testSchema(),
		Options{Delim: ',', HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := collect(t, p, nil)
	if len(rows) != 1 || rows[0][0].I != 5 || rows[0][2].S != "x" {
		t.Errorf("rows = %v", rows)
	}
}

func TestMalformedRecord(t *testing.T) {
	p, err := New(writeFile(t, "1|2.0\n"), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(nil, func(value.Value, int64, func() error) error { return nil }); err == nil {
		t.Error("short record should fail")
	}
	p2, _ := New(writeFile(t, "x|2.0|a\n"), testSchema(), Options{})
	if err := p2.Scan(nil, func(value.Value, int64, func() error) error { return nil }); err == nil {
		t.Error("bad int should fail")
	}
}

func TestEmptyFieldIsNull(t *testing.T) {
	p, err := New(writeFile(t, "1||alpha\n"), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := collect(t, p, nil)
	if rows[0][1].Kind != value.Null {
		t.Errorf("empty field = %v, want null", rows[0][1])
	}
}

func TestNewValidation(t *testing.T) {
	path := writeFile(t, testData)
	if _, err := New(path, value.TInt, Options{}); err == nil {
		t.Error("non-record schema should fail")
	}
	nested := value.TRecord(value.F("xs", value.TList(value.TInt)))
	if _, err := New(path, nested, Options{}); err == nil {
		t.Error("nested schema should fail")
	}
	if _, err := New(filepath.Join(t.TempDir(), "missing.csv"), testSchema(), Options{}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestUnknownNeededField(t *testing.T) {
	p, _ := New(writeFile(t, testData), testSchema(), Options{})
	err := p.Scan([]value.Path{value.ParsePath("nope")}, func(value.Value, int64, func() error) error { return nil })
	if err == nil {
		t.Error("unknown needed field should fail")
	}
}

func TestInferSchema(t *testing.T) {
	path := writeFile(t, "id,price,name\n5,1.5,x\n")
	s, err := InferSchema(path, Options{Delim: ',', HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	want := "record{id:int,price:float,name:string}"
	if s.String() != want {
		t.Errorf("schema = %s, want %s", s, want)
	}
	// Without header: generated names.
	path2 := writeFile(t, "5|1.5|x\n")
	s2, err := InferSchema(path2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Fields[0].Name != "c0" || s2.Fields[2].Type.Kind != value.String {
		t.Errorf("schema = %s", s2)
	}
}

func TestSizeBytes(t *testing.T) {
	p, _ := New(writeFile(t, testData), testSchema(), Options{})
	if p.SizeBytes() != int64(len(testData)) {
		t.Errorf("SizeBytes = %d, want %d", p.SizeBytes(), len(testData))
	}
}

func TestNoTrailingNewline(t *testing.T) {
	p, _ := New(writeFile(t, "1|10.5|alpha\n2|20.25|beta"), testSchema(), Options{})
	rows, _ := collect(t, p, nil)
	if len(rows) != 2 || rows[1][2].S != "beta" {
		t.Errorf("rows = %v", rows)
	}
}

func TestCompleteParsesSkippedFields(t *testing.T) {
	p, err := New(writeFile(t, testData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A scan with a needed-set: complete() must fill the rest in place.
	var names []string
	err = p.Scan([]value.Path{value.ParsePath("id")}, func(rec value.Value, off int64, complete func() error) error {
		if rec.L[2].Kind != value.Null {
			t.Error("name should be unparsed before complete")
		}
		if err := complete(); err != nil {
			return err
		}
		names = append(names, rec.L[2].S)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "alpha" || names[2] != "gamma" {
		t.Errorf("names = %v", names)
	}
	// And again on the loaded provider.
	names = names[:0]
	err = p.Scan([]value.Path{value.ParsePath("id")}, func(rec value.Value, off int64, complete func() error) error {
		if err := complete(); err != nil {
			return err
		}
		names = append(names, rec.L[2].S)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[1] != "beta" {
		t.Errorf("mapped names = %v", names)
	}
}

// Extra trailing fields are tolerated, and the last schema field must end
// at its own delimiter — not swallow the extras up to the line end.
func TestExtraTrailingFields(t *testing.T) {
	p, err := New(writeFile(t, "1|10.5|alpha|extra|junk\n2|20.25|beta\n"), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := collect(t, p, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if got := rows[0][2].S; got != "alpha" {
		t.Errorf("last field = %q, want %q", got, "alpha")
	}
	// Unterminated last record: the final field runs to end-of-file.
	p2, err := New(writeFile(t, "1|10.5|alpha"), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows2, _ := collect(t, p2, nil)
	if len(rows2) != 1 || rows2[0][2].S != "alpha" {
		t.Fatalf("unterminated record rows = %v", rows2)
	}
}

// An integer literal outside int64, or a number with a fractional value, is
// a malformed int field on every path — not a wrapped or truncated value
// that would be served, cached and pushed down as valid. The JSON format's
// test of the same name holds it to the same literals.
func TestIntOverflowIsMalformed(t *testing.T) {
	nop := func(value.Value, int64, func() error) error { return nil }
	for _, lit := range []string{"9223372036854775808", "-9223372036854775809", "18446744073709551617",
		"2.7", "1e-1", "1e19", "-1e300", "2.0000000000000000001"} {
		data := "1|1.5|a\n" + lit + "|2.5|b\n"
		for _, mapped := range []bool{false, true} {
			p, err := New(writeFile(t, data), testSchema(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if mapped {
				// Map the file through a scan that never decodes the id.
				if err := p.Scan([]value.Path{value.ParsePath("name")}, nop); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Scan(nil, nop); err == nil {
				t.Errorf("Scan(mapped=%v) accepted int %s", mapped, lit)
			}
			pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpGe, expr.C("id"), expr.L(0)), p.Schema())
			if _, err := p.ScanPushdown(pd, nil, nop); err == nil {
				t.Errorf("ScanPushdown(mapped=%v) accepted int %s", mapped, lit)
			}
			// The tail scan an append extension runs, from the bad record on.
			if err := p.ScanFrom(int64(len("1|1.5|a\n")), nil, nop); err == nil {
				t.Errorf("ScanFrom(mapped=%v) accepted int %s", mapped, lit)
			}
		}
	}
	// The extremes themselves, and integral values however written, are fine.
	data := "9223372036854775807|1|a\n-9223372036854775808|1|b\n2.0|1|c\n2e3|1|d\n-2.5e3|1|e\n1200e-2|1|f\n"
	want := []int64{1<<63 - 1, -1 << 63, 2, 2000, -2500, 12}
	p, err := New(writeFile(t, data), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"first scan", "mapped scan"} {
		rows, _ := collect(t, p, nil)
		for i, w := range want {
			if rows[i][0].I != w {
				t.Errorf("%s: row %d id = %v, want %d", pass, i, rows[i][0], w)
			}
		}
	}
	pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpEq, expr.C("id"), expr.L(2000)), p.Schema())
	var hits []string
	if _, err := p.ScanPushdown(pd, nil, func(rec value.Value, _ int64, complete func() error) error {
		hits = append(hits, rec.L[2].S)
		return complete()
	}); err != nil || len(hits) != 1 || hits[0] != "d" {
		t.Errorf("pushdown id = 2000 matched %v (%v), want the 2e3 row", hits, err)
	}
}

// TestMappedScanAllocs: a masked mapped scan hands every record the same
// completion callback; it used to allocate one closure per record.
func TestMappedScanAllocs(t *testing.T) {
	var data []byte
	for i := 0; i < 20000; i++ {
		data = fmt.Appendf(data, "%d|%d.5|name-%d\n", i, i%97, i)
	}
	p, err := New(writeFile(t, string(data)), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := rawfiletest.MappedScanAllocs(t, p, []value.Path{value.ParsePath("id")}); n > 8 {
		t.Errorf("masked mapped scan of 20000 records: %.0f allocations, want O(1)", n)
	}
}
