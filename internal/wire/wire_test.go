package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"recache/internal/value"
)

// allRequests covers every op with every op-specific field populated.
func allRequests() []*Request {
	return []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpQuery, SQL: "SELECT COUNT(*) FROM lineitem"},
		{ID: 3, Op: OpExplain, SQL: "SELECT * FROM t WHERE a = 'x'"},
		{ID: 4, Op: OpStats},
		{ID: 5, Op: OpTables},
		{ID: 6, Op: OpSchema, Name: "lineitem"},
		{ID: 7, Op: OpTableStats, Name: "orders"},
		{ID: 8, Op: OpEntries},
		{ID: 9, Op: OpRegisterCSV, Name: "t", Path: "/tmp/t.csv", Schema: "a int, b string", Delim: '|'},
		{ID: 10, Op: OpRegisterJSON, Name: "j", Path: "/tmp/j.json", Schema: "a int"},
		{ID: 11, Op: OpQuery, SQL: ""}, // empty SQL still frames
		{ID: 12, Op: OpFleet},
		{ID: 13, Op: OpLeaseAcquire, Key: "lineitem|l_quantity in [1,5]", Holder: 0xDEADBEEF, TTLMillis: 3000},
		{ID: 14, Op: OpLeaseRelease, Key: "lineitem|l_quantity in [1,5]", Holder: 0xDEADBEEF},
		{ID: 15, Op: OpReplicate, Name: "lineitem", Pred: "(l_quantity<=5)", Payload: []byte("RCS payload stand-in")},
		{ID: 16, Op: OpReplicate, Name: "t", Pred: "true"},
		{ID: 17, Op: OpLeave, ShardID: 2},
	}
}

func resultSchema() *value.Type {
	return value.TRecord(
		value.F("a", value.TInt),
		value.FOpt("b", value.TString),
		value.F("c", value.TList(value.TRecord(
			value.F("x", value.TFloat),
			value.F("y", value.TBool),
		))),
	)
}

func allResponses() []*Response {
	return []*Response{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpQuery, Result: &Result{
			Columns:   []string{"a", "b", "c"},
			Schema:    resultSchema(),
			Batch:     []byte("RCS payload stand-in"),
			WallNanos: 123456,
			NumRows:   7,
		}},
		{ID: 3, Op: OpExplain, Text: "Scan(t)\n  Filter(a = 'x')"},
		{ID: 4, Op: OpStats, StatsJSON: []byte(`{"cache":{},"server":{}}`)},
		{ID: 5, Op: OpTables, Tables: []string{"lineitem", "orders"}},
		{ID: 6, Op: OpSchema, Text: "a int, b string"},
		{ID: 7, Op: OpTableStats, TableStats: &TableStats{RawScans: 3, PushScans: 2, SkippedEarly: 99}},
		{ID: 8, Op: OpEntries, EntriesJSON: []byte(`[]`)},
		{ID: 9, Op: OpRegisterCSV},
		{ID: 10, Op: OpRegisterJSON},
		{ID: 11, Op: OpQuery, Err: "parse error: unexpected token"},
		{ID: 12, Op: OpTables, Tables: []string{}},
		{ID: 13, Op: OpFleet, Fleet: &Fleet{Self: 1, Shards: []FleetShard{
			{ID: 0, Addr: "unix:/tmp/s0.sock"},
			{ID: 1, Addr: "unix:/tmp/s1.sock"},
			{ID: 2, Addr: "tcp:127.0.0.1:7878"},
		}}},
		{ID: 14, Op: OpFleet, Fleet: &Fleet{Self: 0, Shards: []FleetShard{{ID: 0, Addr: "/lone.sock"}}}},
		{ID: 15, Op: OpLeaseAcquire, Lease: &Lease{Granted: true, ExpiresUnixMicro: 1754550000123456}},
		{ID: 16, Op: OpLeaseAcquire, Lease: &Lease{Granted: false, ExpiresUnixMicro: 1754550000123456}},
		{ID: 17, Op: OpLeaseRelease},
		{ID: 18, Op: OpLeaseAcquire, Err: "daemon is not part of a fleet"},
		{ID: 19, Op: OpReplicate},
		{ID: 20, Op: OpLeave},
		{ID: 21, Op: OpReplicate, Err: "disk tier disabled"},
	}
}

func frameBody(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, err := ReadFrame(bytes.NewReader(frame), MaxFrame)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return payload
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range allRequests() {
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("encode %s: %v", req.Op, err)
		}
		got, err := ParseRequest(frameBody(t, frame))
		if err != nil {
			t.Fatalf("parse %s: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range allResponses() {
		frame, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("encode %s: %v", resp.Op, err)
		}
		got, err := ParseResponse(frameBody(t, frame))
		if err != nil {
			t.Fatalf("parse %s: %v", resp.Op, err)
		}
		// An error response carries no body; nil-vs-empty slice differences
		// are not meaningful for the byte fields.
		if got.ID != resp.ID || got.Op != resp.Op || got.Err != resp.Err {
			t.Errorf("%s: header mismatch: got %+v want %+v", resp.Op, got, resp)
		}
		if resp.Err != "" {
			continue
		}
		if resp.Result != nil {
			if got.Result == nil {
				t.Fatalf("%s: result dropped", resp.Op)
			}
			if !reflect.DeepEqual(got.Result.Columns, resp.Result.Columns) ||
				!bytes.Equal(got.Result.Batch, resp.Result.Batch) ||
				got.Result.WallNanos != resp.Result.WallNanos ||
				got.Result.NumRows != resp.Result.NumRows {
				t.Errorf("%s: result mismatch: got %+v want %+v", resp.Op, got.Result, resp.Result)
			}
			if !typeEqual(got.Result.Schema, resp.Result.Schema) {
				t.Errorf("%s: schema mismatch: got %v want %v", resp.Op, got.Result.Schema, resp.Result.Schema)
			}
		}
		if got.Text != resp.Text {
			t.Errorf("%s: text mismatch", resp.Op)
		}
		if len(got.Tables) != len(resp.Tables) || (len(resp.Tables) > 0 && !reflect.DeepEqual(got.Tables, resp.Tables)) {
			t.Errorf("%s: tables mismatch: got %v want %v", resp.Op, got.Tables, resp.Tables)
		}
		if !bytes.Equal(got.StatsJSON, resp.StatsJSON) || !bytes.Equal(got.EntriesJSON, resp.EntriesJSON) {
			t.Errorf("%s: json body mismatch", resp.Op)
		}
		if !reflect.DeepEqual(got.TableStats, resp.TableStats) {
			t.Errorf("%s: table stats mismatch", resp.Op)
		}
		if !reflect.DeepEqual(got.Fleet, resp.Fleet) {
			t.Errorf("%s: fleet mismatch: got %+v want %+v", resp.Op, got.Fleet, resp.Fleet)
		}
		if !reflect.DeepEqual(got.Lease, resp.Lease) {
			t.Errorf("%s: lease mismatch: got %+v want %+v", resp.Op, got.Lease, resp.Lease)
		}
	}
}

func typeEqual(a, b *value.Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || len(a.Fields) != len(b.Fields) {
		return false
	}
	if a.Kind == value.List {
		return typeEqual(a.Elem, b.Elem)
	}
	for i := range a.Fields {
		if a.Fields[i].Name != b.Fields[i].Name ||
			a.Fields[i].Optional != b.Fields[i].Optional ||
			!typeEqual(a.Fields[i].Type, b.Fields[i].Type) {
			return false
		}
	}
	return true
}

func TestReadFrameLimits(t *testing.T) {
	// Declared length past the cap must error before allocating.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<31)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), MaxFrame); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload.
	binary.LittleEndian.PutUint32(hdr[:], 100)
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)), MaxFrame); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Zero-length frame.
	binary.LittleEndian.PutUint32(hdr[:], 0)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), MaxFrame); err == nil {
		t.Fatal("empty frame accepted")
	}
	// EOF mid-header.
	if _, err := ReadFrame(bytes.NewReader([]byte{1, 2}), MaxFrame); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil), MaxFrame); err != io.EOF {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"unknown op":    {0xFF, 0, 0, 0, 0, 0, 0, 0, 0},
		"zero op":       {0, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated id":  {byte(OpPing), 1, 2},
		"trailing junk": append(mustEncodeReq(&Request{ID: 1, Op: OpPing}), 0xAA),
		"huge str len": func() []byte {
			// OpQuery with a string length far past the payload end.
			b := []byte{byte(OpQuery)}
			b = binary.LittleEndian.AppendUint64(b, 1)
			b = binary.LittleEndian.AppendUint32(b, 0xFFFFFFF0)
			return append(b, 'S')
		}(),
		"lease missing holder": func() []byte {
			// OpLeaseAcquire truncated after the key.
			b := []byte{byte(OpLeaseAcquire)}
			b = binary.LittleEndian.AppendUint64(b, 1)
			b = binary.LittleEndian.AppendUint32(b, 1)
			return append(b, 'k')
		}(),
		"fleet trailing junk": append(mustEncodeReq(&Request{ID: 2, Op: OpFleet}), 0x01),
		"replicate huge payload len": func() []byte {
			// OpReplicate with a payload length far past the frame end.
			b := []byte{byte(OpReplicate)}
			b = binary.LittleEndian.AppendUint64(b, 1)
			b = binary.LittleEndian.AppendUint32(b, 1)
			b = append(b, 't')
			b = binary.LittleEndian.AppendUint32(b, 4)
			b = append(b, "true"...)
			b = binary.LittleEndian.AppendUint32(b, 0xFFFFFF00)
			return append(b, 0xAB)
		}(),
		"leave truncated id": {byte(OpLeave), 1, 0, 0, 0, 0, 0, 0, 0, 2},
	}
	for name, payload := range cases {
		if _, err := ParseRequest(payload); err == nil {
			t.Errorf("%s: ParseRequest accepted garbage", name)
		}
	}
}

func mustEncodeReq(req *Request) []byte {
	frame, err := EncodeRequest(req)
	if err != nil {
		panic(err)
	}
	return frame[4:]
}

func mustEncodeResp(resp *Response) []byte {
	frame, err := EncodeResponse(resp)
	if err != nil {
		panic(err)
	}
	return frame[4:]
}

func TestParseResponseRejectsGarbage(t *testing.T) {
	// A count field claiming more elements than the payload can hold.
	b := []byte{0} // status ok
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = append(b, byte(OpTables))
	b = binary.LittleEndian.AppendUint32(b, 1<<30) // element count
	if _, err := ParseResponse(b); err == nil {
		t.Fatal("huge element count accepted")
	}
	// Error response with empty message is malformed.
	e := []byte{1}
	e = binary.LittleEndian.AppendUint64(e, 1)
	e = append(e, byte(OpPing))
	e = binary.LittleEndian.AppendUint32(e, 0)
	if _, err := ParseResponse(e); err == nil {
		t.Fatal("empty error message accepted")
	}
}

func TestTypeCaps(t *testing.T) {
	// Nesting past maxDepth must be rejected by the encoder.
	deep := value.TInt
	for i := 0; i < maxDepth+2; i++ {
		deep = value.TList(deep)
	}
	_, err := EncodeResponse(&Response{ID: 1, Op: OpQuery, Result: &Result{
		Columns: []string{"a"}, Schema: deep,
	}})
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("deep type accepted: %v", err)
	}
	// A decoded record claiming maxFields+1 fields must be rejected.
	b := []byte{0}
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = append(b, byte(OpQuery))
	b = binary.LittleEndian.AppendUint64(b, 0) // wall
	b = binary.LittleEndian.AppendUint64(b, 0) // rows
	b = binary.LittleEndian.AppendUint32(b, 0) // ncols
	b = append(b, byte(value.Record))
	b = binary.LittleEndian.AppendUint32(b, maxFields+1)
	if _, err := ParseResponse(b); err == nil {
		t.Fatal("over-wide record accepted")
	}
}

func TestEncodeResponseTooLarge(t *testing.T) {
	_, err := EncodeResponse(&Response{ID: 1, Op: OpStats, StatsJSON: make([]byte, MaxFrame+1)})
	if err == nil {
		t.Fatal("frame past cap encoded")
	}
}

// FuzzParseRequest: arbitrary bytes must never panic, and anything that
// parses must re-encode to a payload that parses to the same request.
func FuzzParseRequest(f *testing.F) {
	for _, req := range allRequests() {
		f.Add(mustEncodeReq(req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("re-encode of parsed request failed: %v", err)
		}
		again, err := ParseRequest(frame[4:])
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip unstable: %+v vs %+v", req, again)
		}
	})
}

// FuzzParseResponse: arbitrary bytes must never panic and every length or
// count read from the payload must be validated before allocation (the
// fuzzer's OOM detector catches violations).
func FuzzParseResponse(f *testing.F) {
	for _, resp := range allResponses() {
		f.Add(mustEncodeResp(resp))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ParseResponse(data)
		if err != nil {
			return
		}
		frame, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("re-encode of parsed response failed: %v", err)
		}
		if _, err := ParseResponse(frame[4:]); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}

// FuzzReadFrame: a hostile stream must never panic ReadFrame or make it
// allocate past the cap it was given.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		if len(payload) == 0 || len(payload) > 1<<16 {
			t.Fatalf("payload size %d outside (0, max]", len(payload))
		}
	})
}
