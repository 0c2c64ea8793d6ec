package store

import (
	"bytes"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"recache/internal/value"
)

// appendRecs links recs behind st the way a catch-up does: the leaves st
// holds, decoded into TailColumns vectors, then Append.
func appendRecs(t testing.TB, st Store, recs []value.Value) Store {
	t.Helper()
	vecs := TailColumns(st)
	full, lengths := stripe(st.Schema(), recs)
	for ci := range vecs {
		if vecs[ci] != nil {
			vecs[ci] = full[ci]
		}
	}
	out, err := Append(st, len(recs), vecs, lengths)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkChain holds a chain to the merge rule's shape and its charge to its
// chunks: record counts fall strictly along the chain, which holds at most
// bits.Len(n) chunks of n records, and the chain is charged the sum of its
// chunks, each of which is charged what a build of its records is.
func checkChain(t *testing.T, st Store, schema *value.Type, recs []value.Value) {
	t.Helper()
	chunks := chunksOf(st)
	if max := bits.Len(uint(len(recs))); len(chunks) > max && len(recs) > 0 {
		t.Fatalf("%d records in %d chunks, more than %d", len(recs), len(chunks), max)
	}
	var size int64
	from := 0
	for k, ch := range chunks {
		if k > 0 && ch.nRecs >= chunks[k-1].nRecs {
			t.Fatalf("chunk %d holds %d records, its predecessor %d: it should have merged", k, ch.nRecs, chunks[k-1].nRecs)
		}
		if want := build(t, LayoutParquet, schema, recs[from:from+ch.nRecs]).SizeBytes(); !ch.partial() && ch.size != want {
			t.Fatalf("chunk %d of %d records is charged %d bytes, a build of them %d", k, ch.nRecs, ch.size, want)
		}
		size += ch.size
		from += ch.nRecs
	}
	if size != st.SizeBytes() || from != st.NumRecords() {
		t.Fatalf("chain of %d records charged %d bytes, its chunks hold %d records and %d bytes", st.NumRecords(), st.SizeBytes(), from, size)
	}
	if (len(chunks) > 1) != (Chunks(st) != nil) {
		t.Fatalf("%d chunks, Chunks reports %d", len(chunks), len(Chunks(st)))
	}
}

// TestChainMatchesCompaction: a payload extended tail after tail by Append
// reads as a build of all its records — the same flattened rows, per-record
// rows, nested records and RCS bytes, streamed from the chunks — and every
// store it passed through stays as it was. A source read as views of a
// stream keeps viewing it until a merge copies it out.
func TestChainMatchesCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, nested := range []bool{false, true} {
		schema := boolFlatSchema()
		if nested {
			schema = nestedSchema()
		}
		cols := make([]int, len(NewColumns(schema)))
		for i := range cols {
			cols[i] = i
		}
		var recCols []int
		for i, c := range mustLeaves(t, schema) {
			if !c.Repeated {
				recCols = append(recCols, i)
			}
		}
		for _, source := range []string{"built", "re-read"} {
			recs := randomRecords(r, nested, 150)
			stream := rcs(t, build(t, LayoutParquet, schema, recs))
			st := build(t, LayoutParquet, schema, recs)
			if source == "re-read" {
				st = readView(t, stream, schema)
			}
			type snap struct {
				st  Store
				rcs []byte
			}
			var past []snap
			for step := range 40 {
				n := r.Intn(12)
				if step%10 == 9 {
					n = 60 + r.Intn(100) // a tail that catches up with a chunk
				}
				tail := randomRecords(r, nested, n)
				past = append(past, snap{st, rcs(t, st)})
				st = appendRecs(t, st, tail)
				recs = append(recs, tail...)
				want := build(t, LayoutParquet, schema, recs)
				if st.NumRecords() != want.NumRecords() || st.NumFlatRows() != want.NumFlatRows() || st.Layout() != LayoutParquet {
					t.Fatalf("nested=%v %s step %d: %d/%d records/rows, want %d/%d", nested, source, step,
						st.NumRecords(), st.NumFlatRows(), want.NumRecords(), want.NumFlatRows())
				}
				if !bytes.Equal(rcs(t, st), rcs(t, want)) {
					t.Fatalf("nested=%v %s step %d: the chain's RCS stream is not its compaction's", nested, source, step)
				}
				if !reflect.DeepEqual(collectFlat(t, st, cols), collectFlat(t, want, cols)) ||
					!reflect.DeepEqual(collectRecords(t, st, recCols), collectRecords(t, want, recCols)) ||
					!reflect.DeepEqual(collectNested(t, st), collectNested(t, want)) {
					t.Fatalf("nested=%v %s step %d: the chain reads differently from its compaction", nested, source, step)
				}
				checkChain(t, st, schema, recs)
				if source == "re-read" {
					head := chunksOf(st)[0]
					viewed := inside(head.leaf(0).Nulls.words, stream)
					if merged := head.nRecs != 150; viewed == merged {
						t.Fatalf("step %d: a head chunk of %d records views the stream: %v", step, head.nRecs, viewed)
					}
				}
			}
			for i, p := range past {
				if !bytes.Equal(rcs(t, p.st), p.rcs) {
					t.Fatalf("nested=%v %s: store %d changed under the appends that followed it", nested, source, i)
				}
			}
		}
	}
}

func mustLeaves(t *testing.T, schema *value.Type) []value.LeafColumn {
	t.Helper()
	cols, err := value.LeafColumns(schema)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// TestChainMergeKeepsRowsAndCharge walks the merge rule through a binary
// counter's carries: tails of one record each leave chunk sizes that are
// the powers of two in the record count, and every carry folds chunks
// into one without changing the rows or the charge — each chunk, merged
// or not, is charged what a build of its records is.
func TestChainMergeKeepsRowsAndCharge(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	schema := boolFlatSchema()
	recs := randomRecords(r, false, 1)
	st := build(t, LayoutParquet, schema, recs)
	cols := []int{0, 1, 2, 3}
	for n := 2; n <= 200; n++ {
		before := st.SizeBytes()
		tail := randomRecords(r, false, 1)
		tailSize := build(t, LayoutParquet, schema, tail).SizeBytes()
		st = appendRecs(t, st, tail)
		recs = append(recs, tail...)
		var sizes []int
		for _, ch := range chunksOf(st) {
			sizes = append(sizes, ch.nRecs)
		}
		for k, sz := range sizes {
			if bits.OnesCount(uint(sz)) != 1 || k > 0 && sz >= sizes[k-1] || n&sz == 0 {
				t.Fatalf("%d records in chunks %v, want the powers of two of %d", n, sizes, n)
			}
		}
		checkChain(t, st, schema, recs)
		if len(sizes) == bits.OnesCount(uint(n-1))+1 && st.SizeBytes() != before+tailSize {
			t.Fatalf("%d records: a link without a merge moved the charge %d -> %d, the tail holds %d", n, before, st.SizeBytes(), tailSize)
		}
		if !reflect.DeepEqual(collectRecords(t, st, cols), collectRecords(t, build(t, LayoutParquet, schema, recs), cols)) {
			t.Fatalf("%d records: the chain's rows are not the records appended", n)
		}
	}
}

// TestChainConcurrentScanAndExtend: readers scan whichever chain is
// current — its cursors, its nested records and its RCS stream — while a
// writer links tail after tail behind it, merging as the rule says. A
// chain's chunks are immutable, so the race detector sees no write to
// memory a reader reads, and every reader sees exactly the records of the
// chain it loaded.
func TestChainConcurrentScanAndExtend(t *testing.T) {
	schema := boolFlatSchema()
	r := rand.New(rand.NewSource(11))
	base := randomRecords(r, false, 64)
	var cur atomic.Pointer[Store]
	first := build(t, LayoutParquet, schema, base)
	cur.Store(&first)
	// sums[n] is the sum of column a over the first n records.
	all := append([]value.Value(nil), base...)
	tails := make([][]value.Value, 300)
	for i := range tails {
		tails[i] = randomRecords(r, false, 1+r.Intn(20))
		all = append(all, tails[i]...)
	}
	sums := make([]int64, len(all)+1)
	for i := range all {
		sums[i+1] = sums[i] + all[i].L[0].AsInt()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int32, 16)
			for {
				select {
				case <-done:
					return
				default:
				}
				st := *cur.Load()
				c, err := st.BatchCursor(false, []int{0})
				if err != nil {
					t.Error(err)
					return
				}
				var got int64
				rows := 0
				for sel := c.Next(buf); sel != nil; sel = c.Next(buf) {
					for _, i := range sel {
						got += c.Cols[0].Ints[i]
					}
					rows += len(sel)
				}
				n := st.NumRecords()
				if rows != n || got != sums[n] {
					t.Errorf("a scan of %d records read %d rows summing to %d, want %d", n, rows, got, sums[n])
					return
				}
				nested := 0
				if err := st.ScanNested(func(value.Value) error { nested++; return nil }); err != nil || nested != n {
					t.Errorf("ScanNested of %d records emitted %d: %v", n, nested, err)
					return
				}
				if err := WriteParquet(new(bytes.Buffer), st); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	st := first
	for _, tail := range tails {
		next := appendRecs(t, st, tail)
		cur.Store(&next)
		st = next
	}
	close(done)
	wg.Wait()
	if st.NumRecords() != len(all) {
		t.Fatalf("%d records after the appends, want %d", st.NumRecords(), len(all))
	}
}

// TestBitmapAppendBitmap: a bitmap appended at every alignment holds the
// bits of both, and none of the source's past its length.
func TestBitmapAppendBitmap(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for range 200 {
		var a, b, want Bitmap
		for range r.Intn(150) {
			null := r.Intn(3) == 0
			a.Append(null)
			want.Append(null)
		}
		for range r.Intn(150) {
			null := r.Intn(3) == 0
			b.Append(null)
			want.Append(null)
		}
		if len(b.words) > 0 && b.n&63 != 0 {
			b.words[len(b.words)-1] |= ^uint64(0) << (b.n & 63) // garbage past the end
		}
		a.appendBitmap(&b)
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("appended bitmap %v (%d), want %v (%d)", a.words, a.n, want.words, want.n)
		}
	}
}
