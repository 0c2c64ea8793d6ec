package exec

import (
	"time"

	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// This file holds the chunk decode every raw read of the engine shares — a
// miss, an unnest, a lazy entry's replay: records decoded a chunk at a time
// into leaf vectors and list lengths (store's one representation of
// striped records), which the query's batches are read or expanded from
// (chunkIter) while a riding build takes its copy.

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
// (nil for a schema without a repeated field). boxed holds, per top-level
// field, its values decoded whole — nil for a field not boxed (miss.go). A
// query decodes its own leaves into one, reused chunk to chunk.
type leafVecs struct {
	vecs    []*store.Vec
	lengths []int32
	boxed   []*store.Vec
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

// leafDecoder decodes chunks of records with a source's typed kernel,
// pinned to one file epoch, into the query's own vectors, reused chunk to
// chunk, so a chunk is always zero-based. A riding build gets the chunk's
// other leaves from its helper and the query's appended (decode); the
// caller joins the helper before the next decode.
type leafDecoder struct {
	src   plan.Source
	epoch uint64
	own   leafVecs
	rest  []*store.Vec // a build's vectors at the leaves own skips
}

func newLeafDecoder(src plan.Source, epoch uint64, cols []value.LeafColumn, need []bool) *leafDecoder {
	return &leafDecoder{src: src, epoch: epoch, own: newLeafVecs(cols, need), rest: make([]*store.Vec, len(cols))}
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
	if d.own.lengths, err = d.src.AppendColumns(d.epoch, offs, d.own.vecs, d.own.lengths); err != nil {
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
