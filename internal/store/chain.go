package store

import (
	"fmt"
	"slices"

	"recache/internal/value"
)

// A chain is a Parquet form held as immutable chunks, each a Parquet form of
// its own, whose records follow one another. It is what Append makes: the
// tail's chunk is linked behind the chunks of the store it extends, whose
// memory it shares, so a catch-up never copies the prefix it extends. One
// merge rule keeps a chain short with no knob: a chunk folds into its
// predecessor (one Concat of the two) when it holds at least as many
// records. Record counts therefore fall strictly along a chain, which holds
// O(log n) chunks of n records, and a prefix is copied only once the tail
// behind it has grown as large as it.
//
// A chain reads as the store its chunks make laid end to end (its
// compaction): its cursor walks the chunks in order, its RCS stream is the
// compaction's byte for byte, and its size is the sum of its chunks'. A
// flattened view (Flatten) is derived from the compaction, which nested
// payloads, rarely appended, seldom pay for.
type chainStore struct {
	chunks []*parquetStore // two or more, record counts falling strictly
	nRecs  int
	nFlat  int
	size   int64
}

// chunksOf returns the Parquet-form chunks of st in order: a chain's, or
// st's form alone. nil for a store of another package.
func chunksOf(st Store) []*parquetStore {
	switch s := st.(type) {
	case *chainStore:
		return s.chunks
	case *parquetStore:
		return []*parquetStore{s}
	case *columnarStore:
		return []*parquetStore{s.form}
	}
	return nil
}

// Chunks returns the chunks of a chained store, in record order, and nil
// for a store held whole. A cursor over a chain switches its Cols at each
// chunk boundary, so a reader that keeps a cursor's vectors past a batch
// (a join's build table) must copy them when Chunks is not nil.
func Chunks(st Store) []Store {
	c, ok := st.(*chainStore)
	if !ok {
		return nil
	}
	out := make([]Store, len(c.chunks))
	for i, ch := range c.chunks {
		out[i] = ch
	}
	return out
}

// link appends tail to chunks, folding each chunk into its predecessor
// while it holds at least as many records, and returns the result: the one
// chunk left, or the chain of them. chunks is only read.
func link(chunks []*parquetStore, tail *parquetStore) Store {
	chunks = append(slices.Clip(chunks), tail)
	for n := len(chunks); n > 1 && chunks[n-1].nRecs >= chunks[n-2].nRecs; n-- {
		chunks[n-2] = concatForms(chunks[n-2 : n])
		chunks = chunks[:n-1]
	}
	if len(chunks) == 1 {
		return chunks[0]
	}
	c := &chainStore{chunks: chunks}
	for _, ch := range chunks {
		c.nRecs += ch.nRecs
		c.nFlat += ch.nFlat
		c.size += ch.size
	}
	return c
}

// compact returns the Parquet form of st as one chunk: st's own form, or
// the concatenation of a chain's chunks, copied once.
func compact(st Store) *parquetStore {
	chunks := chunksOf(st)
	if len(chunks) == 1 {
		return chunks[0]
	}
	return concatForms(chunks)
}

// concatForms copies the records of parts, in order, into one Parquet form
// whose every vector is allocated once with exactly the room the parts
// need. The parts hold the same leaves; list lengths the first part left
// out stay out. Nothing of the parts is written, and nothing of them is
// shared but the bytes of their strings, which no store rewrites.
func concatForms(parts []*parquetStore) *parquetStore {
	s := parts[0]
	p := *s
	for _, t := range parts[1:] {
		p.nRecs += t.nRecs
		p.nFlat += t.nFlat
	}
	p.flatVecs, p.repVecs = cloneVecs(s.flatVecs, p.nRecs-s.nRecs), cloneVecs(s.repVecs, p.nFlat-s.nFlat)
	if s.listPath != nil && !s.noLengths {
		p.lengths = make([]int32, 0, p.nRecs)
	}
	for _, t := range parts {
		if p.lengths != nil {
			p.lengths = append(p.lengths, t.lengths...)
		}
		if t == s {
			continue
		}
		for ci := range s.cols {
			if dst, from := p.leaf(ci), t.leaf(ci); dst != nil {
				dst.AppendRange(from, 0, from.Len())
			}
		}
	}
	p.size = p.computeSize()
	return &p
}

// compatible checks that t's records can follow s's: the same schema, the
// same leaves held, and list lengths wherever s holds them.
func compatible(s, t *parquetStore) error {
	if !s.schema.Equal(t.schema) {
		return fmt.Errorf("store: concat: a store of %s onto one of %s", t.schema, s.schema)
	}
	for ci, c := range s.cols {
		if (s.leaf(ci) == nil) != (t.leaf(ci) == nil) {
			return fmt.Errorf("store: concat: leaf %q is held by one side only", c.Name())
		}
	}
	if t.noLengths && !s.noLengths {
		return fmt.Errorf("store: concat: a tail without list lengths onto a store with them")
	}
	return nil
}

// Layout implements Store: a chain is a Parquet form.
func (s *chainStore) Layout() Layout { return LayoutParquet }

// Schema implements Store.
func (s *chainStore) Schema() *value.Type { return s.chunks[0].schema }

// Columns implements Store.
func (s *chainStore) Columns() []value.LeafColumn { return s.chunks[0].cols }

// NumRecords implements Store.
func (s *chainStore) NumRecords() int { return s.nRecs }

// NumFlatRows implements Store.
func (s *chainStore) NumFlatRows() int { return s.nFlat }

// SizeBytes implements Store: the sum of the chunks' sizes.
func (s *chainStore) SizeBytes() int64 { return s.size }

// BatchCursor implements Store: one cursor per chunk, opened at once (so an
// error surfaces here) and walked in order. Cols are the current chunk's
// vectors, switched when a batch of the next chunk is returned, and row
// indexes count from that chunk's first row.
func (s *chainStore) BatchCursor(flat bool, cols []int) (*BatchCursor, error) {
	curs := make([]*BatchCursor, len(s.chunks))
	c := &BatchCursor{}
	for i, ch := range s.chunks {
		cur, err := ch.BatchCursor(flat, cols)
		if err != nil {
			return nil, err
		}
		curs[i] = cur
		c.Rows += cur.Rows
		c.ComputeNanos += cur.ComputeNanos
	}
	c.Cols = curs[0].Cols
	k := 0
	c.next = func(buf []int32) []int32 {
		for k < len(curs) {
			if sel := curs[k].next(buf); sel != nil {
				c.Cols = curs[k].Cols
				return sel
			}
			k++
		}
		return nil
	}
	return c, nil
}

// ScanNested implements Store: the chunks' records, in order.
func (s *chainStore) ScanNested(emit func(rec value.Value) error) error {
	for _, ch := range s.chunks {
		if err := ch.ScanNested(emit); err != nil {
			return err
		}
	}
	return nil
}
