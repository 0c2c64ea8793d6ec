package exec

import (
	"fmt"
	"time"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/stats"
	"recache/internal/store"
	"recache/internal/value"
)

// This file is the miss path of nested data: records decoded a chunk at a
// time into leaf vectors and list lengths (store's one representation of
// striped records), and expanded from there into the flattened rows an
// Unnest emits. A lazy entry's replay (cachescan.go) reads its records the
// same way.

// compileUnnest flattens the records of its raw input — [Materialize →]
// Select → Scan, the only input a plan gives an Unnest — through leaf
// vectors. Over a provider with a typed kernel the records come from the
// typed miss (miss.go): each chunk the pushdown cursor passes is decoded
// once into the leaves the query needs — and, while a materializer's build
// rides along, into every leaf of that build — then expanded by its list
// lengths into rows for the operators above. A provider without the kernel
// decodes the records in its scan, and they are striped into the same
// vectors.
//
// The build is the materializer's (see admission): sampled, decided,
// abandoned and handed to the cache as the flat materializer's is, and
// charged what it costs beyond the query. A failure of its decode costs the
// build, never the answer.
func compileUnnest(u *plan.Unnest, deps Deps) (runFn, error) {
	spec, sel, scan, ok := rawSelect(u.Child)
	if !ok {
		return nil, fmt.Errorf("exec: unnest over %s, want a select over a raw scan", u.Child.Canonical())
	}
	ds := scan.DS
	cols, err := value.LeafColumnsCached(ds.Schema())
	if err != nil {
		return nil, err
	}
	needed := scanNeeded(scan, deps)
	need := neededLeaves(cols, needed)
	var leaves []int
	for i, n := range need {
		if n {
			leaves = append(leaves, i)
		}
	}
	newRows := func() *leafRows { return newLeafRows(cols, leaves, leaves, len(cols), true, nil) }

	if p, ok, err := planMiss(spec, sel, scan, deps); err != nil {
		return nil, err
	} else if ok {
		return func(ctx *qctx, out emitFn) error {
			r, err := p.start()
			if err != nil {
				return err
			}
			rows := newRows()
			for {
				ch, ok, err := r.chunk(ctx)
				if !ok {
					if err != nil {
						return err
					}
					r.finish(ctx)
					return nil
				}
				if err := rows.emit(ch, out); err != nil {
					return err
				}
			}
		}, nil
	}

	// The record route needs the query's leaves, the list among them, from
	// the scan (a dataset missing from Needed is read whole).
	scanDeps := deps
	if needed != nil {
		scanDeps.Needed = map[string][]value.Path{ds.Name: append(append([]value.Path{}, needed...), u.ListPath)}
	}
	input, err := compileSelect(sel, scanDeps)
	if err != nil {
		return nil, err
	}
	striper, err := store.NewStriper(ds.Schema())
	if err != nil {
		return nil, err
	}
	return func(ctx *qctx, out emitFn) error {
		var a *admission
		if spec != nil {
			var err error
			if a, err = newAdmission(spec); err != nil {
				return err
			}
		}
		rows := newRows()
		own := newLeafVecs(cols, need)
		var lastOff int64
		// flush expands the records striped since the last flush to the
		// operators above, and decides when they ended the sample.
		flush := func() error {
			err := rows.emit(own.chunk(), out)
			own.reset()
			if a != nil && a.sampled() {
				a.decide(ctx, lastOff)
			}
			return err
		}
		err := input(ctx, func(row []value.Value) error {
			lastOff = ctx.curOffset
			if a != nil {
				if a.admit(ctx, lastOff); a.b != nil {
					a.addRecord(row, ctx.curComplete)
				}
			}
			if own.stripe(striper, row); own.n >= store.BatchRows || (a != nil && a.sampled()) {
				return flush()
			}
			return nil
		})
		if err == nil && own.n > 0 {
			err = flush()
		}
		if err != nil {
			return err
		}
		if a != nil {
			a.finish(ctx, lastOff, rows.down.EstimatedTotal().Nanoseconds())
		}
		return nil
	}, nil
}

// neededLeaves marks the leaf columns the needed paths cover — a path names
// a leaf or an ancestor of leaves; nil needs them all.
func neededLeaves(cols []value.LeafColumn, needed []value.Path) []bool {
	need := make([]bool, len(cols))
	for i, c := range cols {
		need[i] = needed == nil
		for _, p := range needed {
			need[i] = need[i] || c.Path.HasPrefix(p)
		}
	}
	return need
}

// leafChunk is a run of n records decoded into leaf vectors: vecs holds them
// from record rec0 on — and, in the repeated leaves, from element elem0 on
// — and lengths holds their list lengths (nil for a schema without a
// repeated field).
type leafChunk struct {
	vecs        []*store.Vec
	lengths     []int32
	n           int
	rec0, elem0 int32
}

// leafVecs are the vectors a query decodes its own leaves into, nil at the
// leaves it does not need, reused chunk to chunk.
type leafVecs struct {
	vecs    []*store.Vec
	lengths []int32
	n       int
}

func newLeafVecs(cols []value.LeafColumn, need []bool) leafVecs {
	l := leafVecs{vecs: make([]*store.Vec, len(cols))}
	for i, c := range cols {
		if need[i] {
			l.vecs[i] = store.NewVec(c.Type.Kind)
		}
	}
	return l
}

func (l *leafVecs) chunk() leafChunk { return leafChunk{vecs: l.vecs, lengths: l.lengths, n: l.n} }

func (l *leafVecs) reset() {
	for _, v := range l.vecs {
		if v != nil {
			v.Truncate(0)
		}
	}
	l.lengths, l.n = l.lengths[:0], 0
}

// stripe appends the leaves of one decoded record.
func (l *leafVecs) stripe(s *store.Striper, row []value.Value) {
	l.lengths = s.Append(value.Value{Kind: value.Record, L: row}, l.vecs, l.lengths)
	l.n++
}

// leafDecoder decodes chunks of records with a provider's typed kernel,
// pinned to one file epoch: the query's leaves into vectors of its own or,
// while a build rides along, every leaf straight into the build's vectors
// in one pass. What such a pass costs the build is its share of the time,
// measured on the build's first chunk: that chunk is decoded in two passes,
// the query's leaves and then the others, and the build is charged the
// second pass and the appends of the first's vectors to its own.
type leafDecoder struct {
	app     plan.ColumnAppender
	epoch   uint64
	own     leafVecs
	rest    []*store.Vec // a build's vectors at the leaves own skips
	scratch []int32      // the lengths of a build's second pass, dropped
	list    bool
	recLeaf int // a non-repeated and a repeated leaf, -1 for none
	repLeaf int
	share   float64 // the build's share of a one-pass decode; 0 until measured
}

func newLeafDecoder(app plan.ColumnAppender, epoch uint64, cols []value.LeafColumn, need []bool) *leafDecoder {
	d := &leafDecoder{app: app, epoch: epoch, own: newLeafVecs(cols, need),
		rest: make([]*store.Vec, len(cols)), recLeaf: -1, repLeaf: -1}
	for i, c := range cols {
		switch {
		case c.Repeated && d.repLeaf < 0:
			d.repLeaf, d.list = i, true
		case !c.Repeated && d.recLeaf < 0:
			d.recLeaf = i
		}
	}
	return d
}

// decode decodes the records at offs — into the query's own vectors, or
// with b into all of b's — and returns the chunk the query's rows expand
// from and the build's share of the time. A failure on the build's side
// (berr) leaves the chunk decoded and b to be abandoned; one on the query's
// side (err) fails the query.
func (d *leafDecoder) decode(offs []int64, b *eagerBuild) (ch leafChunk, build time.Duration, berr, err error) {
	if b != nil && d.share > 0 {
		ch = leafChunk{vecs: b.vecs, n: len(offs)}
		ch.rec0, ch.elem0 = d.position(b)
		t0 := time.Now()
		if b.lengths, berr = d.app.AppendColumns(d.epoch, offs, b.vecs, b.lengths); berr == nil {
			if d.list {
				ch.lengths = b.lengths[ch.rec0:]
			}
			return ch, time.Duration(float64(time.Since(t0)) * d.share), nil, nil
		}
		b = nil // the query decodes its leaves alone below
	}
	d.own.reset()
	t0 := time.Now()
	if d.own.lengths, err = d.app.AppendColumns(d.epoch, offs, d.own.vecs, d.own.lengths); err != nil {
		return ch, 0, berr, err
	}
	d.own.n = len(offs)
	if b == nil {
		return d.own.chunk(), 0, berr, nil
	}
	q := time.Since(t0)
	t1 := time.Now()
	berr = d.appendRest(offs, b)
	if build = time.Since(t1); berr == nil {
		d.share = max(float64(build)/float64(build+q), 1e-9)
	}
	return d.own.chunk(), build, berr, nil
}

// appendRest completes a two-pass chunk in b: the leaves the query skipped
// are decoded into b's vectors, then the query's are appended to them.
func (d *leafDecoder) appendRest(offs []int64, b *eagerBuild) error {
	rest := false
	for i, v := range d.own.vecs {
		d.rest[i] = nil
		if v == nil {
			d.rest[i], rest = b.vecs[i], true
		}
	}
	if rest {
		var err error
		if d.scratch, err = d.app.AppendColumns(d.epoch, offs, d.rest, d.scratch[:0]); err != nil {
			return err
		}
	}
	for i, v := range d.own.vecs {
		if v != nil {
			b.vecs[i].AppendRange(v, 0, v.Len())
		}
	}
	b.lengths = append(b.lengths, d.own.lengths...)
	return nil
}

// position returns where b's vectors end: its record count, and its element
// count in the repeated leaves.
func (d *leafDecoder) position(b *eagerBuild) (rec, elem int32) {
	switch {
	case d.list:
		rec = int32(len(b.lengths))
	case d.recLeaf >= 0:
		rec = int32(b.vecs[d.recLeaf].Len())
	}
	if d.repLeaf >= 0 {
		elem = int32(b.vecs[d.repLeaf].Len())
	}
	return rec, elem
}

// leafRows expands decoded chunks into the rows of the operators above: a
// row per list element with its record's leaves beside its own (flat), or a
// row per record. A row is width values wide; leaf leaves[k] fills slot
// slots[k], and every other slot stays null. pred, when set, drops rows.
type leafRows struct {
	flat          bool
	width         int
	leaves, slots []int
	repeated      []bool // per leaves[k]
	pred          expr.Predicate
	down          *stats.SampledTimer // the operators above, sampled
	buf           []value.Value
	parent, dense []int32
}

func newLeafRows(cols []value.LeafColumn, leaves, slots []int, width int, flat bool, pred expr.Predicate) *leafRows {
	r := &leafRows{flat: flat, width: width, leaves: leaves, slots: slots, pred: pred,
		repeated: make([]bool, len(leaves)),
		down:     stats.NewSampledTimer(stats.SampleShift, nil),
		buf:      make([]value.Value, store.BatchRows*max(width, 1))}
	for k, leaf := range leaves {
		r.repeated[k] = cols[leaf].Repeated
	}
	return r
}

// emit pushes the rows of ch, a batch of up to store.BatchRows at a time:
// each leaf column is written into the batch's rows by one typed loop,
// gathered by the rows' parent records (a record leaf of a flattened row)
// or read in order.
func (r *leafRows) emit(ch leafChunk, out emitFn) error {
	expand := r.flat && ch.lengths != nil
	rows, first := ch.n, ch.rec0
	if expand {
		r.parent = store.ParentIndex(r.parent[:0], ch.lengths, ch.rec0)
		rows, first = len(r.parent), ch.elem0
	}
	w := r.width
	for lo := 0; lo < rows; lo += store.BatchRows {
		n := min(store.BatchRows, rows-lo)
		r.dense = r.dense[:0]
		for k := range n {
			r.dense = append(r.dense, first+int32(lo+k))
		}
		records := r.dense
		if expand {
			records = r.parent[lo : lo+n]
		}
		for k, leaf := range r.leaves {
			sel := records
			if r.repeated[k] {
				sel = r.dense
			}
			store.FillColumn(r.buf, r.slots[k], w, sel, ch.vecs[leaf])
		}
		for k := range n {
			row := r.buf[k*w : (k+1)*w : (k+1)*w]
			if r.pred != nil && !r.pred(row) {
				continue
			}
			if r.down.Begin() {
				err := out(row)
				r.down.End()
				if err != nil {
					return err
				}
			} else if err := out(row); err != nil {
				return err
			}
		}
	}
	return nil
}
