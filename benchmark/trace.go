package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/csvio"
	"recache/internal/expr"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/sqlparse"
	"recache/internal/store"
	"recache/internal/value"
	"recache/internal/wire"
)

// The tracer measures every layer from outside. For a sampled query it
// keeps the client-observed call as the root span and then replays the
// query stage by stage through the layers' public functions, one span per
// call. Replays run after the observed call, so a span's parent is the
// span that *caused* it (the stage that contains this work in the real
// call), not one that encloses it in time; a layer's self time is its
// span's duration minus its children's durations.

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root (the observed query)
	Query  int    `json:"query"`  // shared by all spans of one traced query
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// spanLayer maps span names to the layer their self time is charged to.
var spanLayer = map[string]string{
	"sqlparse.parse":        "sqlparse",
	"engine.explain":        "planner",
	"engine.query":          "exec",
	"engine.query_columnar": "exec",
	"csvio.scan_pushdown":   "rawscan",
	"jsonio.scan_pushdown":  "rawscan",
	"store.builder_fill":    "build",
	"store.write_parquet":   "store",
	"store.read_parquet":    "store",
	"wire.encode_response":  "wire",
	"wire.parse_response":   "wire",
	"client.decode_rows":    "client",
	"client.ping_rtt":       "transport",
}

type tracer struct {
	d    *dataset
	t0   time.Time
	wire bool

	mu    sync.Mutex
	spans []traceSpan
	nextQ int

	provMu sync.Mutex
	provs  map[string]rawProvider
}

// rawProvider is what the miss replay needs from csvio/jsonio providers.
type rawProvider interface {
	plan.ScanProvider
	plan.PushdownScanner
	plan.RefreshableProvider
}

func newTracer(d *dataset, wire bool) *tracer {
	return &tracer{d: d, t0: time.Now(), wire: wire, provs: map[string]rawProvider{}}
}

func (t *tracer) add(name string, parent, q int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, traceSpan{ID: id, Parent: parent, Query: q, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn as one span.
func (t *tracer) timed(name string, parent, q int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.add(name, parent, q, start, time.Now()), err
}

func (t *tracer) newQuery() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextQ++
	return t.nextQ
}

// provider returns the tracer's own raw provider for a table, so a miss
// can be replayed below the engine without touching the engine's state.
func (t *tracer) provider(name string) (rawProvider, string, error) {
	t.provMu.Lock()
	defer t.provMu.Unlock()
	tbl := t.d.table(name)
	if tbl == nil {
		return nil, "", fmt.Errorf("trace: unknown table %q", name)
	}
	format := "csvio"
	if tbl.json {
		format = "jsonio"
	}
	if p, ok := t.provs[name]; ok {
		_, err := p.Refresh() // pick up rows churn appended since the last replay
		return p, format, err
	}
	schema, err := recache.ParseSchema(tbl.schema)
	if err != nil {
		return nil, "", err
	}
	var p rawProvider
	if tbl.json {
		p, err = jsonio.New(tbl.path, schema)
	} else {
		p, err = csvio.New(tbl.path, schema, csvio.Options{Delim: '|'})
	}
	if err != nil {
		return nil, "", err
	}
	t.provs[name] = p
	return p, format, nil
}

func boxRow(rec value.Value) []any {
	out := make([]any, len(rec.L))
	for i, v := range rec.L {
		switch v.Kind {
		case value.Int:
			out[i] = v.I
		case value.Float:
			out[i] = v.F
		case value.String:
			out[i] = v.S
		case value.Bool:
			out[i] = v.B
		}
	}
	return out
}

// replayQuery records the observed call [start, end] as a root span and
// replays the query through the layers. miss says the observed call
// scanned raw files; cl is the worker's connection on the wire workload.
func (t *tracer) replayQuery(eng *recache.Engine, cl *client.Client, sql string, miss bool, start, end time.Time) error {
	q := t.newQuery()
	root := t.add("query", 0, q, start, end)
	if t.wire {
		if _, err := t.timed("client.ping_rtt", root, q, cl.Ping); err != nil {
			return err
		}
	}
	parent := root
	var br *recache.BatchResult
	if !miss {
		// A replayed hit does the observed call's engine work again. (A
		// replayed miss would not: the observed call admitted the entry.)
		var err error
		if t.wire {
			parent, err = t.timed("engine.query_columnar", root, q, func() (err error) {
				br, err = eng.QueryColumnar(sql)
				return err
			})
		} else {
			parent, err = t.timed("engine.query", root, q, func() error {
				_, err := eng.Query(sql)
				return err
			})
		}
		if err != nil {
			return err
		}
	}
	explain, err := t.timed("engine.explain", parent, q, func() error {
		_, err := eng.Explain(sql)
		return err
	})
	if err != nil {
		return err
	}
	var parsed *sqlparse.Query
	if _, err := t.timed("sqlparse.parse", explain, q, func() (err error) {
		parsed, err = sqlparse.Parse(sql)
		return err
	}); err != nil {
		return err
	}
	if miss {
		return t.replayRawScan(parsed, root, q)
	}
	if t.wire {
		return t.replayWire(br, root, q)
	}
	return nil
}

// replayRawScan replays a single-table miss below the engine: the pushed
// scan alone, then the same scan feeding a store builder. The fill span's
// self time is what admission adds to the scan.
func (t *tracer) replayRawScan(parsed *sqlparse.Query, root, q int) error {
	if len(parsed.Tables) != 1 || len(parsed.Joins) != 0 || parsed.Where == nil {
		return nil
	}
	prov, format, err := t.provider(parsed.Tables[0])
	if err != nil {
		return err
	}
	pd, _ := expr.ExtractPushdown(parsed.Where, prov.Schema())
	if pd == nil {
		return nil
	}
	layout := store.LayoutColumnar
	if value.RepeatedField(prov.Schema()) != nil {
		layout = store.LayoutParquet
	}
	b, err := store.NewBuilder(layout, prov.Schema())
	if err != nil {
		return err
	}
	fill, err := t.timed("store.builder_fill", root, q, func() error {
		_, err := prov.ScanPushdown(pd, nil, func(rec value.Value, _ int64, complete func() error) error {
			if err := complete(); err != nil {
				return err
			}
			return b.Add(rec)
		})
		b.Finish()
		return err
	})
	if err != nil {
		return err
	}
	_, err = t.timed(format+".scan_pushdown", fill, q, func() error {
		_, err := prov.ScanPushdown(pd, nil, func(value.Value, int64, func() error) error { return nil })
		return err
	})
	return err
}

// replayWire replays the serving stack's stages on a columnar result: the
// server's RCS1 encode and response framing, then the client's parse,
// batch decode and row boxing.
func (t *tracer) replayWire(br *recache.BatchResult, root, q int) error {
	var batch bytes.Buffer
	if _, err := t.timed("store.write_parquet", root, q, func() error {
		return store.WriteParquet(&batch, br.Store)
	}); err != nil {
		return err
	}
	resp := &wire.Response{ID: 1, Op: wire.OpQuery, Result: &wire.Result{
		Columns: br.Columns, Schema: br.Schema, Batch: batch.Bytes(),
		WallNanos: br.Stats.Wall.Nanoseconds(), NumRows: int64(br.Stats.Rows)}}
	var frame []byte
	if _, err := t.timed("wire.encode_response", root, q, func() (err error) {
		frame, err = wire.EncodeResponse(resp)
		return err
	}); err != nil {
		return err
	}
	var got *wire.Response
	if _, err := t.timed("wire.parse_response", root, q, func() (err error) {
		got, err = wire.ParseResponse(frame[4:])
		return err
	}); err != nil {
		return err
	}
	var st store.Store
	if _, err := t.timed("store.read_parquet", root, q, func() (err error) {
		st, err = store.ReadParquetBytes(got.Result.Batch, got.Result.Schema)
		return err
	}); err != nil {
		return err
	}
	_, err := t.timed("client.decode_rows", root, q, func() error {
		rows := make([][]any, 0, got.Result.NumRows)
		return st.ScanNested(func(rec value.Value) error {
			rows = append(rows, boxRow(rec))
			return nil
		})
	})
	wire.RecycleFrame(frame)
	return err
}

// shares attributes the traced queries' observed wall time to layers: each
// span's self time (duration minus children) goes to its layer, and what
// no span covers is "unattributed".
func (t *tracer) shares() (byLayer map[string]float64, unattributed float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byLayer = map[string]float64{}
	var observed, attributed float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			observed += float64(s.End - s.Start)
			continue
		}
		d := float64(self[s.ID])
		if d < 0 {
			d = 0 // a replayed child ran slower than the parent it is part of
		}
		byLayer[spanLayer[s.Name]] += d
		attributed += d
	}
	if observed == 0 {
		return byLayer, 0
	}
	for l := range byLayer {
		byLayer[l] /= observed
	}
	return byLayer, 1 - attributed/observed
}

// write stores the spans as trace-<workload>.json under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Queries  int         `json:"traced_queries"`
		Spans    []traceSpan `json:"spans"`
	}{workload, seed, t.nextQ, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
