package jsonio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recache/internal/expr"
	"recache/internal/rawfile/rawfiletest"
	"recache/internal/store"
	"recache/internal/value"
)

func orderSchema() *value.Type {
	return value.TRecord(
		value.F("o_orderkey", value.TInt),
		value.F("o_totalprice", value.TFloat),
		value.FOpt("o_comment", value.TString),
		value.F("origin", value.TRecord(
			value.FOpt("country", value.TString),
			value.FOpt("ip", value.TString),
		)),
		value.F("lineitems", value.TList(value.TRecord(
			value.F("l_quantity", value.TInt),
			value.FOpt("l_discount", value.TFloat),
		))),
	)
}

const testData = `{"o_orderkey":1,"o_totalprice":100.5,"o_comment":"fast","origin":{"country":"CH","ip":"1.2.3.4"},"lineitems":[{"l_quantity":3,"l_discount":0.1},{"l_quantity":7}]}
{"o_orderkey":2,"o_totalprice":50.0,"lineitems":[]}
{"o_orderkey":3,"o_totalprice":75.25,"origin":{"country":"US"},"lineitems":[{"l_quantity":1,"l_discount":0}],"unknown_key":{"x":[1,2,{"y":"z"}]}}
`

func writeFile(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "data.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func collect(t *testing.T, p *Provider, needed []value.Path) ([]value.Value, []int64) {
	t.Helper()
	var recs []value.Value
	var offs []int64
	err := p.Scan(needed, func(rec value.Value, off int64, _ func() error) error {
		recs = append(recs, value.VRecord(append([]value.Value(nil), rec.L...)...))
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, offs
}

func TestScanFull(t *testing.T) {
	p, err := New(writeFile(t, testData), orderSchema())
	if err != nil {
		t.Fatal(err)
	}
	recs, offs := collect(t, p, nil)
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	r0 := recs[0]
	if r0.L[0].I != 1 || r0.L[1].F != 100.5 || r0.L[2].S != "fast" {
		t.Errorf("rec0 = %v", r0)
	}
	if r0.L[3].L[0].S != "CH" {
		t.Errorf("origin.country = %v", r0.L[3])
	}
	items := r0.L[4]
	if items.Kind != value.List || len(items.L) != 2 {
		t.Fatalf("lineitems = %v", items)
	}
	if items.L[0].L[0].I != 3 || items.L[0].L[1].F != 0.1 {
		t.Errorf("item0 = %v", items.L[0])
	}
	// Missing l_discount normalizes to null.
	if !items.L[1].L[1].IsNull() {
		t.Errorf("missing l_discount = %v, want null", items.L[1].L[1])
	}
	// Record 2: missing origin → record of nulls; empty list stays empty.
	r1 := recs[1]
	if r1.L[3].Kind != value.Record || !r1.L[3].L[0].IsNull() {
		t.Errorf("missing origin = %v, want record of nulls", r1.L[3])
	}
	if r1.L[4].Kind != value.List || len(r1.L[4].L) != 0 {
		t.Errorf("empty lineitems = %v", r1.L[4])
	}
	if !r1.L[2].IsNull() {
		t.Errorf("missing o_comment = %v", r1.L[2])
	}
	// Record 3: unknown keys skipped, partial origin.
	r2 := recs[2]
	if r2.L[0].I != 3 || r2.L[3].L[0].S != "US" || !r2.L[3].L[1].IsNull() {
		t.Errorf("rec2 = %v", r2)
	}
	if offs[0] != 0 {
		t.Errorf("offset 0 = %d", offs[0])
	}
	if p.NumRecords() != 3 {
		t.Errorf("NumRecords = %d", p.NumRecords())
	}
}

func TestSelectiveParseAfterPositionalMap(t *testing.T) {
	p, err := New(writeFile(t, testData), orderSchema())
	if err != nil {
		t.Fatal(err)
	}
	collect(t, p, nil)
	recs, _ := collect(t, p, []value.Path{value.ParsePath("o_totalprice")})
	if recs[0].L[1].F != 100.5 {
		t.Errorf("o_totalprice = %v", recs[0].L[1])
	}
	if !recs[0].L[0].IsNull() || recs[0].L[4].Kind != value.List && !recs[0].L[4].IsNull() {
		t.Errorf("unneeded fields should be null: %v", recs[0])
	}
	// Nested needed path pulls in its whole top-level subtree.
	recs2, _ := collect(t, p, []value.Path{value.ParsePath("lineitems.l_quantity")})
	if recs2[0].L[4].Kind != value.List || recs2[0].L[4].L[0].L[0].I != 3 {
		t.Errorf("lineitems = %v", recs2[0].L[4])
	}
	// Absent optional field via positional map → normalized null record.
	recs3, _ := collect(t, p, []value.Path{value.ParsePath("origin.country")})
	if recs3[1].L[3].Kind != value.Record || !recs3[1].L[3].L[0].IsNull() {
		t.Errorf("absent origin via map = %v", recs3[1].L[3])
	}
}

func TestScanOffsets(t *testing.T) {
	p, err := New(writeFile(t, testData), orderSchema())
	if err != nil {
		t.Fatal(err)
	}
	_, offs := collect(t, p, nil)
	var got []value.Value
	err = p.ScanOffsets([]int64{offs[2], offs[0]}, nil, func(rec value.Value, off int64, _ func() error) error {
		got = append(got, value.VRecord(append([]value.Value(nil), rec.L...)...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].L[0].I != 3 || got[1].L[0].I != 1 {
		t.Errorf("ScanOffsets = %v", got)
	}
}

func TestScanOffsetsWithoutMap(t *testing.T) {
	p, err := New(writeFile(t, testData), orderSchema())
	if err != nil {
		t.Fatal(err)
	}
	var got []value.Value
	err = p.ScanOffsets([]int64{0}, nil, func(rec value.Value, off int64, _ func() error) error {
		got = append(got, value.VRecord(append([]value.Value(nil), rec.L...)...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].L[0].I != 1 {
		t.Errorf("got = %v", got)
	}
}

func TestStringEscapes(t *testing.T) {
	schema := value.TRecord(value.F("s", value.TString))
	data := `{"s":"a\"b\\c\nédA"}` + "\n"
	p, err := New(writeFile(t, data), schema)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, p, nil)
	want := "a\"b\\c\nédA"
	if recs[0].L[0].S != want {
		t.Errorf("escaped string = %q, want %q", recs[0].L[0].S, want)
	}
}

func TestListOfPrimitives(t *testing.T) {
	schema := value.TRecord(
		value.F("name", value.TString),
		value.F("categories", value.TList(value.TString)),
	)
	data := `{"name":"biz","categories":["food","bar"]}` + "\n"
	p, err := New(writeFile(t, data), schema)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, p, nil)
	cats := recs[0].L[1]
	if cats.Kind != value.List || len(cats.L) != 2 || cats.L[1].S != "bar" {
		t.Errorf("categories = %v", cats)
	}
}

func TestMalformedJSON(t *testing.T) {
	schema := value.TRecord(value.F("n", value.TInt))
	for _, bad := range []string{
		`{"n":}` + "\n",
		`{"n":1` + "\n",
		`{"n" 1}` + "\n",
		`[1]` + "\n",
	} {
		p, err := New(writeFile(t, bad), schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Scan(nil, func(value.Value, int64, func() error) error { return nil }); err == nil {
			t.Errorf("malformed %q should fail", bad)
		}
	}
}

func TestWriteRecordRoundTrip(t *testing.T) {
	schema := orderSchema()
	rec := value.VRecord(
		value.VInt(9),
		value.VFloat(12.25),
		value.VNull, // omitted on write
		value.VRecord(value.VString("DE"), value.VNull),
		value.VList(
			value.VRecord(value.VInt(4), value.VFloat(0.2)),
			value.VRecord(value.VInt(5), value.VNull),
		),
	)
	var buf []byte
	buf = WriteRecord(buf, rec, schema)
	p, err := New(writeFile(t, string(buf)), schema)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, p, nil)
	if len(recs) != 1 {
		t.Fatalf("round trip lost records")
	}
	if !recs[0].Equal(rec) {
		t.Errorf("round trip:\ngot  %v\nwant %v", recs[0], rec)
	}
}

func TestNewValidation(t *testing.T) {
	path := writeFile(t, testData)
	if _, err := New(path, value.TInt); err == nil {
		t.Error("non-record schema should fail")
	}
	doubleNested := value.TRecord(value.F("a", value.TList(value.TRecord(
		value.F("b", value.TList(value.TInt))))))
	if _, err := New(path, doubleNested); err == nil {
		t.Error("double-nested lists should be rejected")
	}
}

func TestUnknownNeededField(t *testing.T) {
	p, _ := New(writeFile(t, testData), orderSchema())
	err := p.Scan([]value.Path{value.ParsePath("nope.deep")}, func(value.Value, int64, func() error) error { return nil })
	if err == nil {
		t.Error("unknown needed field should fail")
	}
}

func TestCompleteParsesSkippedFields(t *testing.T) {
	p, err := New(writeFile(t, testData), orderSchema())
	if err != nil {
		t.Fatal(err)
	}
	check := func(pass string) {
		var prices []float64
		var items int
		err := p.Scan([]value.Path{value.ParsePath("o_orderkey")}, func(rec value.Value, off int64, complete func() error) error {
			if err := complete(); err != nil {
				return err
			}
			prices = append(prices, rec.L[1].F)
			items += len(rec.L[4].L)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if len(prices) != 3 || prices[0] != 100.5 || prices[2] != 75.25 {
			t.Errorf("%s: prices = %v", pass, prices)
		}
		if items != 3 {
			t.Errorf("%s: items = %d, want 3", pass, items)
		}
	}
	check("first scan")
	check("mapped scan")
}

// A number outside int64, or with a fractional value, in an int field is
// malformed on every path — never wrapped, rounded or truncated. The CSV
// format's test of the same name holds it to the same literals.
func TestIntOverflowIsMalformed(t *testing.T) {
	schema := value.TRecord(value.F("n", value.TInt), value.FOpt("s", value.TString))
	nop := func(value.Value, int64, func() error) error { return nil }
	for _, lit := range []string{"9223372036854775808", "-9223372036854775809", "18446744073709551617",
		"2.7", "1e-1", "1e19", "-1e300", "2.0000000000000000001"} {
		data := `{"n":1,"s":"a"}` + "\n" + `{"n":` + lit + `,"s":"b"}` + "\n"
		for _, mapped := range []bool{false, true} {
			p, err := New(writeFile(t, data), schema)
			if err != nil {
				t.Fatal(err)
			}
			if mapped {
				// Map the file through a scan that never decodes n.
				if err := p.Scan([]value.Path{value.ParsePath("s")}, nop); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Scan(nil, nop); err == nil {
				t.Errorf("Scan(mapped=%v) accepted int %s", mapped, lit)
			}
			pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpGe, expr.C("n"), expr.L(0)), schema)
			if _, err := p.ScanPushdown(pd, nil, nop); err == nil {
				t.Errorf("ScanPushdown(mapped=%v) accepted int %s", mapped, lit)
			}
			// The tail scan an append extension runs, from the bad record on.
			if err := p.ScanFrom(int64(len(`{"n":1,"s":"a"}`+"\n")), nil, nop); err == nil {
				t.Errorf("ScanFrom(mapped=%v) accepted int %s", mapped, lit)
			}
		}
	}
	// The extremes themselves, and integral values however written, are fine.
	var data strings.Builder
	for i, lit := range []string{"9223372036854775807", "-9223372036854775808", "2.0", "2e3", "-2.5e3", "1200e-2"} {
		fmt.Fprintf(&data, "{\"n\":%s,\"s\":\"%c\"}\n", lit, 'a'+i)
	}
	want := []int64{1<<63 - 1, -1 << 63, 2, 2000, -2500, 12}
	p, err := New(writeFile(t, data.String()), schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"first scan", "mapped scan"} {
		recs, _ := collect(t, p, nil)
		for i, w := range want {
			if recs[i].L[0].I != w {
				t.Errorf("%s: record %d n = %v, want %d", pass, i, recs[i].L[0], w)
			}
		}
	}
	pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpEq, expr.C("n"), expr.L(2000)), schema)
	var hits []string
	if _, err := p.ScanPushdown(pd, nil, func(rec value.Value, _ int64, complete func() error) error {
		hits = append(hits, rec.L[1].S)
		return complete()
	}); err != nil || len(hits) != 1 || hits[0] != "d" {
		t.Errorf("pushdown n = 2000 matched %v (%v), want the 2e3 record", hits, err)
	}
}

// TestMappedScanAllocs: a masked mapped scan hands every record the same
// completion callback; it used to allocate one closure per record.
func TestMappedScanAllocs(t *testing.T) {
	var data []byte
	for i := 0; i < 20000; i++ {
		data = fmt.Appendf(data, `{"k":%d,"price":%d.5,"tag":"name-%d"}`+"\n", i, i%97, i)
	}
	schema := value.TRecord(value.F("k", value.TInt), value.F("price", value.TFloat), value.F("tag", value.TString))
	p, err := New(writeFile(t, string(data)), schema)
	if err != nil {
		t.Fatal(err)
	}
	if n := rawfiletest.MappedScanAllocs(t, p, []value.Path{value.ParsePath("k")}); n > 8 {
		t.Errorf("masked mapped scan of 20000 records: %.0f allocations, want O(1)", n)
	}
}

// TestFirstScanAllocs: mapping a file matches object keys as bytes and steps
// over the strings it skips, so a pushdown scan of a fresh provider — open,
// read, map, scan — allocates O(1) beyond the positional map's growth, not
// one string per key and one per skipped string.
func TestFirstScanAllocs(t *testing.T) {
	if rawfiletest.Race {
		t.Skip("the race detector allocates")
	}
	const n = 20000
	var data []byte
	for i := 0; i < n; i++ {
		data = fmt.Appendf(data, `{"k":%d,"note":"unknown-%d","tag":"name-%d","extra":{"s":["a","b\\n"],"t":"x"},"price":%d.5}`+"\n", i, i, i, i%97)
	}
	path := writeFile(t, string(data))
	schema := value.TRecord(value.F("k", value.TInt), value.F("tag", value.TString), value.F("price", value.TFloat))
	pd, _ := expr.ExtractPushdown(expr.Cmp(expr.OpGe, expr.C("k"), expr.L(n/2)), schema)
	needed := []value.Path{value.ParsePath("k")}
	var passed int
	scan := func() {
		p, err := New(path, schema)
		if err != nil {
			t.Fatal(err)
		}
		passed = 0
		_, err = p.ScanPushdown(pd, needed, func(value.Value, int64, func() error) error {
			passed++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, scan)
	if passed != n/2 {
		t.Fatalf("%d records passed k >= %d, want %d", passed, n/2, n/2)
	}
	growth := testing.AllocsPerRun(3, func() {
		var recStart []int64
		var fieldOff []uint32
		offs := make([]uint32, len(schema.Fields))
		for i := 0; i < n; i++ {
			recStart = append(recStart, int64(i))
			fieldOff = append(fieldOff, offs...)
		}
	})
	// The rest is fixed: opening, stat-ing and reading the file, the
	// snapshot, the mask and the emitter — about two dozen allocations.
	if allocs > growth+32 {
		t.Errorf("first scan of %d records: %.0f allocations, positional-map growth is %.0f; want O(1) beyond it", n, allocs, growth)
	}
}

// Keys resolve as FieldIndex would on the unescaped key, whatever their
// order, escapes or repeats, and in a schema that repeats a field name.
func TestFieldResolution(t *testing.T) {
	for _, schema := range []*value.Type{
		value.TRecord(value.F("a", value.TInt), value.F("bb", value.TInt), value.F("c", value.TInt)),
		value.TRecord(value.F("a", value.TInt), value.F("a", value.TInt), value.F("c", value.TInt), value.F("a", value.TInt)),
	} {
		f := &format{schema: schema, distinct: distinctNames(schema)}
		for _, key := range []string{"a", "bb", "c", "b", "", "aa", `\u0061`, `b\u0062`, `\"`} {
			raw := []byte(key)
			escaped := strings.Contains(key, `\`)
			want, _ := schema.FieldIndex(unescape(raw))
			for prev := -1; prev < len(schema.Fields); prev++ {
				if got := f.field(schema, raw, escaped, prev); got != want {
					t.Errorf("%s: key %q after field %d resolved to %d, want %d", schema, key, prev, got, want)
				}
			}
		}
	}
}

// Strings round-trip: what WriteRecord writes, the reader and encoding/json
// both read back as encoding/json's reading of the string — the string
// itself when it is valid UTF-8, with U+FFFD for each invalid byte
// otherwise.
func TestStringRoundTrip(t *testing.T) {
	schema := value.TRecord(value.F("s", value.TString))
	inputs := []string{"plain", "", `q"uote`, `back\slash`, "bell\a", "ctl\x01\x1f", "bad\xff", "trunc\xe2\x82",
		"nl\ncr\rtab\tbs\bff\f", "del\x7f", "é😀\u2028", "\ufffd", "<&>"}
	var data []byte
	for _, in := range inputs {
		data = WriteRecord(data, value.VRecord(value.VString(in)), schema)
	}
	p, err := New(writeFile(t, string(data)), schema)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, p, nil)
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i, in := range inputs {
		marshalled, _ := json.Marshal(in)
		var want, std struct{ S string }
		if err := json.Unmarshal([]byte(`{"s":`+string(marshalled)+`}`), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(lines[i]), &std); err != nil || std.S != want.S {
			t.Errorf("encoding/json reads %s as %q (%v), want %q", lines[i], std.S, err, want.S)
		}
		if got := recs[i].L[0].S; got != want.S {
			t.Errorf("reader reads %s as %q, want %q", lines[i], got, want.S)
		}
	}
}

// Escaped UTF-16 surrogates decode as encoding/json decodes them: a pair is
// one code point, a lone or mismatched half is U+FFFD. A malformed \u,
// which encoding/json rejects, keeps its bytes less the backslash.
func TestSurrogateEscapes(t *testing.T) {
	for _, lit := range []string{
		`\ud83d\ude00`, `x\uD83D\uDE00y`, `\ud83d`, `\ude00`, `\ud83dx`, `\ud83d\u0041`, `\ud83d\ud83d\ude00`,
		`\ude00\ud83d`, `\u00e9\u0041`,
	} {
		var want string
		if err := json.Unmarshal([]byte(`"`+lit+`"`), &want); err != nil {
			t.Fatal(err)
		}
		if got := unescape([]byte(lit)); got != want {
			t.Errorf("unescape(%s) = %q, encoding/json says %q", lit, got, want)
		}
	}
	for lit, want := range map[string]string{`\uzzzz`: "uzzzz", `\ud83d\u12`: "\ufffdu12", `\u12`: "u12"} {
		if got := unescape([]byte(lit)); got != want {
			t.Errorf("unescape(%s) = %q, want %q", lit, got, want)
		}
	}
}

// TestNestedKernelKeyOrders: the typed kernel reads a list and a record
// that sit in a sub-record, whose keys come in and out of schema order,
// repeat (the list among them: the last list wins, the earlier one's
// elements are dropped), or are unknown, with the values and list lengths a full decode gives
// (rawfiletest.Equivalence). A repeated key whose earlier value is
// malformed fails the record, as the decode does.
func TestNestedKernelKeyOrders(t *testing.T) {
	schema := value.TRecord(
		value.F("k", value.TInt),
		value.F("a", value.TRecord(
			value.F("x", value.TInt),
			value.F("items", value.TList(value.TRecord(value.F("q", value.TInt), value.FOpt("s", value.TString)))),
			value.FOpt("y", value.TFloat),
			value.F("w", value.TRecord(value.F("v", value.TInt))),
		)),
		value.FOpt("z", value.TString),
	)
	path := filepath.Join(t.TempDir(), "a.json")
	write := func(data string) *Provider {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := New(path, schema)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	data := strings.Join([]string{
		`{"k":1,"a":{"x":1,"items":[{"q":1,"s":"a"},{"q":2}],"y":1.5},"z":"in order"}`,
		`{"k":2,"a":{"items":[{"s":"b","q":3}],"x":2}}`,
		`{"k":3,"a":{"x":3,"items":[{"q":4},{"q":5}],"y":2.5,"items":[{"q":6}]}}`,
		`{"a":{"y":3.5,"u":{"items":[1]},"items":null,"x":4},"k":4}`,
		`{"k":5,"a":null}`,
		`{"k":6}`,
		`{"k":7,"a":{"items":[],"items":[{"q":7,"q":8,"s":"c","s":"d"},{}],"x":7,"x":8}}`,
		`{"k":8,"a":{"x":9,"items":[{"q":9}]}}`,
		`{"k":9,"a":{"w":{"v":1},"x":1,"w":{"v":2},"items":[{"q":1}]}}`,
	}, "\n") + "\n"
	p := write(data)
	rawfiletest.Equivalence(t, p, len(data), []expr.Expr{expr.Cmp(expr.OpGe, expr.C("k"), expr.L(3))},
		[][]value.Path{{value.ParsePath("a.items.q")}, {value.ParsePath("k")}})

	bad := `{"k":1,"a":{"items":[{"q":1}],"x":1,"items":[{"q":"x"}],"items":[{"q":2}]}}` + "\n"
	p = write(bad)
	epoch, _ := p.Version()
	if _, err := p.AppendColumns(epoch, []int64{0}, store.NewColumns(schema), nil); err == nil {
		t.Error("AppendColumns accepted a record whose overridden list holds a malformed value")
	}
	if err := p.Scan(nil, func(value.Value, int64, func() error) error { return nil }); err == nil {
		t.Error("Scan accepted the same record")
	}
}
