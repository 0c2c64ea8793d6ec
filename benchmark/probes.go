package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"recache"
	"recache/internal/cache"
	"recache/internal/client"
	"recache/internal/csvio"
	"recache/internal/datagen"
	"recache/internal/expr"
	"recache/internal/freshness"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/server"
	"recache/internal/sqlparse"
	"recache/internal/store"
	"recache/internal/value"
	"recache/internal/wire"
)

// The layer probes time each layer's public functions in isolation on this
// run's generated data. They are the same in every workload's traced run:
// a probe that moves while a workload's end-to-end metrics do not says the
// workload does not depend on that layer.

// medianNs is the median duration of n calls to fn, in nanoseconds.
func medianNs(n int, fn func() error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ds), nil
}

func mbPerS(bytes int64, ns float64) float64 { return ratio(float64(bytes)/1e6, ns/1e9) }

type prober struct {
	o    options
	d    *dataset
	eng  *recache.Engine // warmed with pool, unbounded cache
	pool []query
	m    map[string]float64
}

// runProbes measures every probe metric. eng must be warmed with pool; a
// nil eng makes the probes warm their own.
func runProbes(o options, d *dataset, eng *recache.Engine, pool []query) (map[string]float64, error) {
	if eng == nil {
		env, err := warmHot(o, d, new(reference), false)
		if err != nil {
			return nil, err
		}
		defer env.close()
		eng, pool = env.eng, env.pool
	}
	p := &prober{o: o, d: d, eng: eng, pool: pool, m: map[string]float64{}}
	for _, probe := range []func() error{p.frontEnd, p.cacheRewrite, p.rawFiles, p.storeAndWire, p.serving, p.freshness} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

// frontEnd: sqlparse, the planner (Explain: parse + plan + peek), what a
// hit costs outside execution (client wall - Result.Stats.Wall: parse,
// plan, rewrite, result boxing) and expr's per-hit work.
func (p *prober) frontEnd() error {
	schema, err := recache.ParseSchema(datagen.LineitemSchema) // the agg classes read lineitem
	if err != nil {
		return err
	}
	var parse, explain, prepare, extract, compile []float64
	for _, q := range p.pool {
		ns, err := medianNs(5, func() error { _, err := sqlparse.Parse(q.SQL); return err })
		if err != nil {
			return err
		}
		parse = append(parse, ns)
		ns, err = medianNs(3, func() error { _, err := p.eng.Explain(q.SQL); return err })
		if err != nil {
			return err
		}
		explain = append(explain, ns)
		if q.Class != clsExact && q.Class != clsSubsumed {
			continue
		}
		for i := 0; i < 5; i++ {
			start := time.Now()
			res, err := p.eng.Query(q.SQL)
			if err != nil {
				return err
			}
			prepare = append(prepare, float64((time.Since(start) - res.Stats.Wall).Nanoseconds()))
		}
		parsed, err := sqlparse.Parse(q.SQL)
		if err != nil {
			return err
		}
		ns, _ = medianNs(20, func() error { expr.ExtractPushdown(parsed.Where, schema); return nil })
		extract = append(extract, ns)
		ns, err = medianNs(20, func() error { _, err := expr.CompilePredicate(parsed.Where, schema); return err })
		if err != nil {
			return err
		}
		compile = append(compile, ns)
	}
	p.m["sqlparse.parse_ns"] = median(parse)
	p.m["engine.explain_ns"] = median(explain)
	p.m["engine.prepare_ns"] = median(prepare)
	p.m["expr.pushdown_extract_ns"] = median(extract)
	p.m["expr.compile_pred_ns"] = median(compile)
	return nil
}

// memProvider is a two-record in-memory dataset for the cache probe: the
// lookup's cost depends on the entries' predicates, not their payloads.
type memProvider struct {
	schema *value.Type
	recs   []value.Value
}

func (m *memProvider) Schema() *value.Type { return m.schema }
func (m *memProvider) NumRecords() int     { return len(m.recs) }
func (m *memProvider) SizeBytes() int64    { return int64(len(m.recs)) * 16 }
func (m *memProvider) Scan(_ []value.Path, fn plan.ScanFunc) error {
	for i, rec := range m.recs {
		if err := fn(rec, int64(i), func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}
func (m *memProvider) ScanOffsets(offsets []int64, _ []value.Path, fn plan.ScanFunc) error {
	for _, off := range offsets {
		if err := fn(m.recs[off], off, func() error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// cacheRewrite times Begin().Rewrite on a standalone manager holding 1024
// range entries: an exact match, and a range one entry subsumes (R-tree).
func (p *prober) cacheRewrite() error {
	const entries = 1024
	schema := value.TRecord(value.F("a", value.TInt), value.F("c", value.TFloat))
	ds := &plan.Dataset{Name: "probe", Format: plan.FormatCSV, Provider: &memProvider{schema: schema,
		recs: []value.Value{value.VRecord(value.VInt(1), value.VFloat(1)), value.VRecord(value.VInt(2), value.VFloat(2))}}}
	m := cache.NewManager(cache.Config{Admission: cache.AlwaysEager})
	rng := func(i, pad int) expr.Expr {
		return expr.Between(expr.C("a"), expr.L(i*100+pad), expr.L(i*100+50-pad))
	}
	for i := 0; i < entries; i++ {
		pred := rng(i, 0)
		ranges, err := expr.ExtractRanges(pred, schema)
		if err != nil {
			return err
		}
		b, err := store.NewBuilder(m.ChooseLayout(ds), schema)
		if err != nil {
			return err
		}
		if err := b.Add(value.VRecord(value.VInt(int64(i*100+1)), value.VFloat(1))); err != nil {
			return err
		}
		spec := &cache.BuildSpec{Manager: m, Dataset: ds, Pred: pred, PredCanon: pred.Canonical(), Ranges: ranges}
		if m.CompleteBuild(spec, b.Finish(), nil, cache.Eager, 1000, 500) == nil {
			return fmt.Errorf("cache probe: entry %d not admitted", i)
		}
	}
	needed := map[string][]string{"probe": {"a"}}
	probe := func(pad int) (float64, error) {
		i := 0
		return medianNs(2000, func() error {
			i = (i + 397) % entries
			tx := m.Begin()
			root := tx.Rewrite(&plan.Select{Pred: rng(i, pad), Child: &plan.Scan{DS: ds}}, needed)
			tx.Close()
			if _, hit := root.(*plan.CachedScan); !hit {
				// A subsumed hit keeps a residual Select above the CachedScan.
				if sel, ok := root.(*plan.Select); !ok || !isCachedScan(sel.Child) {
					return fmt.Errorf("cache probe: lookup %d missed: %s", i, plan.Explain(root))
				}
			}
			return nil
		})
	}
	var err error
	if p.m["cache.rewrite_exact_ns"], err = probe(0); err != nil {
		return err
	}
	p.m["cache.rewrite_subsumed_ns"], err = probe(5)
	return err
}

func isCachedScan(n plan.Node) bool { _, ok := n.(*plan.CachedScan); return ok }

func discard(value.Value, int64, func() error) error { return nil }

// rawFiles times the tokenizers on lineitem.csv / lineitem.json: the first
// scan (tokenize + build the positional map), a mapped re-scan, a scan
// with a 1%-selective predicate pushed below parsing, a tail scan of the
// last tenth (what an append costs), and a nested-file scan.
func (p *prober) rawFiles() error {
	schema, err := recache.ParseSchema(datagen.LineitemSchema)
	if err != nil {
		return err
	}
	needed := []value.Path{value.ParsePath("l_extendedprice")}
	ship := columnsFor(p.o.sf).liShip
	onePct := span{ship, ship.min + 30000, ship.min + 30000 + 0.01*(ship.max-ship.min)}
	parsed, err := sqlparse.Parse(sel("COUNT(*)", tLineitem, "", onePct))
	if err != nil {
		return err
	}
	pd, _ := expr.ExtractPushdown(parsed.Where, schema)
	if pd == nil {
		return fmt.Errorf("raw-file probe: no pushdown for %s", onePct)
	}
	for _, f := range []struct {
		name string
		tbl  *table
	}{{"csvio", p.d.table(tLineitem)}, {"jsonio", p.d.table(tLineitemJSON)}} {
		var prov rawProvider
		if f.tbl.json {
			prov, err = jsonio.New(f.tbl.path, schema)
		} else {
			prov, err = csvio.New(f.tbl.path, schema, csvio.Options{Delim: '|'})
		}
		if err != nil {
			return err
		}
		var offsets []int64
		first, err := medianNs(1, func() error {
			return prov.Scan(needed, func(_ value.Value, off int64, _ func() error) error {
				offsets = append(offsets, off)
				return nil
			})
		})
		if err != nil {
			return err
		}
		size := prov.SizeBytes()
		p.m[f.name+".firstscan_mb_s"] = mbPerS(size, first)
		mapped, err := medianNs(3, func() error { return prov.Scan(needed, discard) })
		if err != nil {
			return err
		}
		p.m[f.name+".mapped_mb_s"] = mbPerS(size, mapped)
		pushed, err := medianNs(3, func() error { _, err := prov.ScanPushdown(pd, needed, discard); return err })
		if err != nil {
			return err
		}
		p.m[f.name+".pushdown_mb_s"] = mbPerS(size, pushed)
		if !f.tbl.json {
			from := offsets[len(offsets)*9/10]
			tail, err := medianNs(5, func() error { return prov.ScanFrom(from, needed, discard) })
			if err != nil {
				return err
			}
			p.m["csvio.tail_mb_s"] = mbPerS(size-from, tail)
		}
	}
	nested := p.d.table(tNested)
	nschema, err := recache.ParseSchema(nested.schema)
	if err != nil {
		return err
	}
	prov, err := jsonio.New(nested.path, nschema)
	if err != nil {
		return err
	}
	nneeded := []value.Path{value.ParsePath("lineitems.l_extendedprice")}
	if err := prov.Scan(nneeded, discard); err != nil {
		return err
	}
	ns, err := medianNs(2, func() error { return prov.Scan(nneeded, discard) })
	p.m["jsonio.nested_mb_s"] = mbPerS(prov.SizeBytes(), ns)
	return err
}

// storeAndWire times cache-entry builds, RCS1 serialization and response
// framing on lineitem records.
func (p *prober) storeAndWire() error {
	schema, err := recache.ParseSchema(datagen.LineitemSchema)
	if err != nil {
		return err
	}
	prov, err := csvio.New(p.d.paths.Lineitem, schema, csvio.Options{Delim: '|'})
	if err != nil {
		return err
	}
	const want = 20000
	var recs []value.Value
	errDone := fmt.Errorf("enough")
	err = prov.Scan(nil, func(rec value.Value, _ int64, _ func() error) error {
		recs = append(recs, value.Value{Kind: value.Record, L: append([]value.Value(nil), rec.L...)})
		if len(recs) == want {
			return errDone
		}
		return nil
	})
	if err != nil && err != errDone {
		return err
	}
	build := func(layout store.Layout, rs []value.Value) (store.Store, error) {
		b, err := store.NewBuilder(layout, schema)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			if err := b.Add(r); err != nil {
				return nil, err
			}
		}
		return b.Finish(), nil
	}
	rowsPerS := func(rows int, ns float64) float64 { return ratio(float64(rows), ns/1e9) }
	for name, layout := range map[string]store.Layout{"columnar": store.LayoutColumnar, "parquet": store.LayoutParquet} {
		ns, err := medianNs(3, func() error { _, err := build(layout, recs); return err })
		if err != nil {
			return err
		}
		p.m["store.build_rows_s."+name] = rowsPerS(len(recs), ns)
	}
	head, tail := recs[:len(recs)*9/10], recs[len(recs)*9/10:]
	columnar, err := build(store.LayoutColumnar, head)
	if err != nil {
		return err
	}
	ns, err := medianNs(5, func() error {
		if _, ok, err := store.Extend(columnar, tail); err != nil || !ok {
			return fmt.Errorf("store.Extend: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["store.extend_rows_s"] = rowsPerS(len(recs), ns)

	parquet, err := build(store.LayoutParquet, recs)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if ns, err = medianNs(5, func() error { buf.Reset(); return store.WriteParquet(&buf, parquet) }); err != nil {
		return err
	}
	p.m["store.rcs1_write_mb_s"] = mbPerS(int64(buf.Len()), ns)
	if ns, err = medianNs(5, func() error { _, err := store.ReadParquetBytes(buf.Bytes(), schema); return err }); err != nil {
		return err
	}
	p.m["store.rcs1_read_mb_s"] = mbPerS(int64(buf.Len()), ns)

	// Response framing: a one-row aggregate result and a 4096-row batch.
	scalar, err := p.eng.QueryColumnar(p.pool[0].SQL)
	if err != nil {
		return err
	}
	rows4k, err := build(store.LayoutParquet, recs[:min(4096, len(recs))])
	if err != nil {
		return err
	}
	cols := make([]string, len(schema.Fields))
	for i, f := range schema.Fields {
		cols[i] = f.Name
	}
	for _, r := range []struct {
		name   string
		cols   []string
		schema *value.Type
		st     store.Store
	}{{"scalar", scalar.Columns, scalar.Schema, scalar.Store}, {"rows4k", cols, schema, rows4k}} {
		var batch bytes.Buffer
		if err := store.WriteParquet(&batch, r.st); err != nil {
			return err
		}
		resp := &wire.Response{ID: 1, Op: wire.OpQuery, Result: &wire.Result{Columns: r.cols, Schema: r.schema,
			Batch: batch.Bytes(), NumRows: int64(r.st.NumRecords())}}
		if ns, err = medianNs(100, func() error {
			frame, err := wire.EncodeResponse(resp)
			wire.RecycleFrame(frame)
			return err
		}); err != nil {
			return err
		}
		p.m["wire.encode_resp_ns."+r.name] = ns
		frame, err := wire.EncodeResponse(resp)
		if err != nil {
			return err
		}
		if ns, err = medianNs(100, func() error { _, err := wire.ParseResponse(frame[4:]); return err }); err != nil {
			return err
		}
		p.m["wire.parse_resp_ns."+r.name] = ns
	}
	req := &wire.Request{ID: 1, Op: wire.OpQuery, SQL: p.pool[0].SQL}
	p.m["wire.req_roundtrip_ns"], err = medianNs(500, func() error {
		frame, err := wire.EncodeRequest(req)
		if err != nil {
			return err
		}
		_, err = wire.ParseRequest(frame[4:])
		wire.RecycleFrame(frame)
		return err
	})
	return err
}

// serving puts a server in front of the warmed engine and measures what
// the stack adds per class: the ping round trip (transport and goroutine
// hand-off floor), row decoding (Query - Exec on the rows class) and the
// wire tax (wire Query - embedded Query).
func (p *prober) serving() error {
	sock := filepath.Join(p.o.tmp, "probe.sock")
	os.Remove(sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	srv := server.New(p.eng)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		<-served
	}()
	cl, err := client.Dial("unix:"+sock, client.Options{})
	if err != nil {
		return err
	}
	defer cl.Close()
	ping, err := medianNs(500, cl.Ping)
	if err != nil {
		return err
	}
	p.m["client.ping_rtt_us"] = ping / 1e3
	tax := make([][]float64, numClasses)
	var decode []float64
	for _, q := range p.pool {
		overWire, err := medianNs(5, func() error { _, err := cl.Query(q.SQL); return err })
		if err != nil {
			return err
		}
		embedded, err := medianNs(5, func() error { _, err := p.eng.Query(q.SQL); return err })
		if err != nil {
			return err
		}
		tax[q.Class] = append(tax[q.Class], (overWire-embedded)/1e3)
		if q.Class == clsRows {
			noDecode, err := medianNs(5, func() error { _, _, err := cl.Exec(q.SQL); return err })
			if err != nil {
				return err
			}
			decode = append(decode, overWire-noDecode)
		}
	}
	for c, name := range classNames {
		p.m["wire_tax_us."+name] = median(tax[c])
	}
	p.m["client.decode_ns"] = median(decode)
	return nil
}

// freshness times the per-query revalidation of an unchanged file.
func (p *prober) freshness() error {
	path := p.d.paths.Lineitem
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fp := freshness.Capture(data, st.ModTime().UnixNano())
	p.m["freshness.check_ns"], err = medianNs(500, func() error {
		status, err := fp.Check(path)
		if err == nil && status != freshness.Unchanged {
			err = fmt.Errorf("freshness probe: unchanged file reads as %s", status)
		}
		return err
	})
	return err
}
