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
// into the leaves the query needs — while a materializer's build rides
// along, its helper decodes the others — then expanded by its list lengths
// into rows for the operators above. A provider without the kernel
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
			r, err := p.start(ctx)
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
			if a, err = newAdmission(ctx, spec); err != nil {
				return err
			}
		}
		rows := newRows()
		own := newLeafVecs(cols, need)
		var lastOff int64
		// flush expands the records striped since the last flush to the
		// operators above, and decides when they ended the sample.
		flush := func() error {
			err := rows.emit(own, out)
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

// leafVecs is a chunk: n records decoded into leaf vectors, from their
// first entries on, nil at the leaves not decoded, and their list lengths
// (nil for a schema without a repeated field). A query decodes its own
// leaves into one, reused chunk to chunk.
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
// pinned to one file epoch, into the query's own vectors, reused chunk to
// chunk, so a chunk is always zero-based. A riding build gets the chunk's
// other leaves from its helper and the query's appended (decode); the
// caller joins the helper before the next decode.
type leafDecoder struct {
	app   plan.ColumnAppender
	epoch uint64
	own   leafVecs
	rest  []*store.Vec // a build's vectors at the leaves own skips
}

func newLeafDecoder(app plan.ColumnAppender, epoch uint64, cols []value.LeafColumn, need []bool) *leafDecoder {
	return &leafDecoder{app: app, epoch: epoch, own: newLeafVecs(cols, need), rest: make([]*store.Vec, len(cols))}
}

// decode decodes the records at offs into the query's own vectors and
// returns them. With b, whose helper is joined, the chunk joins the build:
// b's helper starts on the leaves the query skips (with the list lengths)
// before the query decodes its own, which are then appended to b's. Both
// steps are the time returned. A failure fails the query.
func (d *leafDecoder) decode(offs []int64, b *eagerBuild) (ch leafVecs, build time.Duration, err error) {
	t0 := time.Now()
	rest := false
	if b != nil {
		for i, v := range d.own.vecs {
			if d.rest[i] = nil; v == nil {
				d.rest[i], rest = b.vecs[i], true
			}
		}
		if rest {
			b.start(offs, d.rest)
		}
		build = time.Since(t0)
	}
	d.own.reset()
	if d.own.lengths, err = d.app.AppendColumns(d.epoch, offs, d.own.vecs, d.own.lengths); err != nil {
		return ch, build, err
	}
	if d.own.n = len(offs); b == nil {
		return d.own, 0, nil
	}
	t1 := time.Now()
	for i, v := range d.own.vecs {
		if v != nil {
			b.vecs[i].AppendRange(v, 0, v.Len())
		}
	}
	if !rest {
		b.lengths = append(b.lengths, d.own.lengths...)
	}
	return d.own, build + time.Since(t1), nil
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
func (r *leafRows) emit(ch leafVecs, out emitFn) error {
	expand := r.flat && ch.lengths != nil
	rows := ch.n
	if expand {
		r.parent = store.ParentIndex(r.parent[:0], ch.lengths, 0)
		rows = len(r.parent)
	}
	w := r.width
	for lo := 0; lo < rows; lo += store.BatchRows {
		n := min(store.BatchRows, rows-lo)
		r.dense = r.dense[:0]
		for k := range n {
			r.dense = append(r.dense, int32(lo+k))
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
