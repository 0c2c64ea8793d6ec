package client

import (
	"bufio"
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"recache/internal/store"
	"recache/internal/value"
	"recache/internal/wire"
)

// answerQueries serves one connection, answering every request with the
// query response mk builds for it.
func answerQueries(t *testing.T, mk func(id uint64) *wire.Response) string {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "fake.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			payload, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				return
			}
			req, err := wire.ParseRequest(payload)
			if err != nil {
				return
			}
			frame, err := wire.EncodeResponse(mk(req.ID))
			if err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	return "unix:" + ln.Addr().String()
}

// A response header's NumRows is a u64 straight off the wire. Query must
// size nothing from it: a forged count over a one-row batch is the
// decoded-vs-header mismatch error, not a makeslice panic or an OOM.
func TestQueryForgedNumRows(t *testing.T) {
	schema := value.TRecord(value.F("id", value.TInt), value.F("name", value.TString))
	b, err := store.NewBuilder(store.LayoutParquet, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(value.VRecord(value.VInt(7), value.VString("x"))); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := store.WriteParquet(&batch, b.Finish()); err != nil {
		t.Fatal(err)
	}
	var numRows atomic.Int64
	numRows.Store(1 << 62)
	addr := answerQueries(t, func(id uint64) *wire.Response {
		return &wire.Response{ID: id, Op: wire.OpQuery, Result: &wire.Result{
			Columns: []string{"id", "name"}, Schema: schema, Batch: batch.Bytes(), NumRows: numRows.Load()}}
	})
	cl, err := Dial(addr, Options{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Query("SELECT id, name FROM t"); err == nil || !strings.Contains(err.Error(), "header says") {
		t.Fatalf("forged NumRows: err = %v, want the decoded-vs-header mismatch", err)
	}
	numRows.Store(1)
	res, err := cl.Query("SELECT id, name FROM t")
	if err != nil {
		t.Fatalf("honest NumRows: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(7) || res.Rows[0][1] != "x" {
		t.Fatalf("rows = %v, want [[7 x]]", res.Rows)
	}
}
