package exec

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// This file is the hash join. The build side hashes its key column
// straight out of batches into a typed open-addressing table — no
// interface boxing, and a cache scan's build rows are stored as row-ids
// into its retained column vectors rather than copied — and the probe side
// scans right-hand batches emitting matched (build-row, probe-row) pairs,
// gathered into joined output batches. Keys follow SQL equality as a Go
// map keyed by the values would: +0 and -0 join each other, NaN and NULL
// keys never match, and a key pair with no typed mode (sub-records)
// compares the keys' renderings.

// keyMode is the typed representation join keys normalize into, derived
// from the two key column kinds: both-int stays int; any numeric mix
// compares as float64.
type keyMode uint8

const (
	keyModeInt keyMode = iota
	keyModeFloat
	keyModeString
	keyModeBool
)

func joinKeyMode(lk, rk value.Kind) (keyMode, bool) {
	num := func(k value.Kind) bool { return k == value.Int || k == value.Float }
	switch {
	case lk == value.Int && rk == value.Int:
		return keyModeInt, true
	case num(lk) && num(rk):
		return keyModeFloat, true
	case lk == value.String && rk == value.String:
		return keyModeString, true
	case lk == value.Bool && rk == value.Bool:
		return keyModeBool, true
	}
	return 0, false
}

// keyKindOK is the schema-drift guard for the key column: the batch vector
// must hold the representation the mode's kernels read.
func keyKindOK(mode keyMode, k value.Kind) bool {
	switch mode {
	case keyModeInt:
		return k == value.Int
	case keyModeFloat:
		return k == value.Int || k == value.Float
	case keyModeString:
		return k == value.String
	default:
		return k == value.Bool
	}
}

// joinFloatBits canonicalizes a float join key: +0 and -0 collapse (they
// are equal, as Go map keys too treat them), while NaN never reaches here
// (callers drop NaN keys on both sides: a NaN never compares equal).
func joinFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// hashUint hashes a fixed-width key by Fibonacci hashing: the product with
// 2^64/φ, whose top bits, which a joinTable indexes slots by, depend on
// every bit of the key. Dense int keys land evenly spread, and so do keys
// whose low bits never vary — a float key's canonical bits for an
// integral value have a zero low word.
func hashUint(x uint64) uint64 { return x * 0x9e3779b97f4a7c15 }

// hashString is FNV-1a, whose top bits depend little on the last bytes,
// put through hashUint.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return hashUint(h)
}

// typedKey holds one normalized join key: sk under the string mode, ik
// under the fixed-width ones (an int, a float's canonical bits, a bool as
// 0/1).
type typedKey struct {
	h  uint64
	ik int64
	sk string
}

// fixedKey reads row r's key under the int or float mode as the int64 the
// table stores: the int itself, or the float's canonical bits. ok is false
// for a NaN key, which never joins; callers handle nulls beforehand.
func fixedKey(v *store.Vec, r int32, mode keyMode) (int64, bool) {
	if mode == keyModeInt {
		return v.Ints[r], true
	}
	if v.Kind == value.Int {
		return int64(joinFloatBits(float64(v.Ints[r]))), true
	}
	f := v.Floats[r]
	if f != f {
		return 0, false
	}
	return int64(joinFloatBits(f)), true
}

// colKey extracts and normalizes the key at v[r]. ok is false when the row
// cannot join (NaN under float mode); callers handle nulls beforehand.
func colKey(v *store.Vec, r int32, mode keyMode) (typedKey, bool) {
	var k typedKey
	switch mode {
	case keyModeString:
		k.sk = v.Strs[r]
		k.h = hashString(k.sk)
		return k, true
	case keyModeBool:
		if v.Bools[r] {
			k.ik = 1
		}
	default:
		ik, ok := fixedKey(v, r, mode)
		if !ok {
			return k, false
		}
		k.ik = ik
	}
	k.h = hashUint(uint64(k.ik))
	return k, true
}

// joinTable is the typed open-addressing hash table of the build side. One
// slot per distinct key (linear probing from the hash's top bits), with
// duplicate-key rows chained through an entry list in insertion order —
// probe output therefore lists a key's build rows in build order, as a
// slice-append table keyed by the values does.
type joinTable struct {
	mode  keyMode
	shift uint // 64 - log2(slots): a hash's home slot is h >> shift
	mask  uint64
	// heads holds each slot's first entry plus one: 0 marks an empty slot,
	// so a fresh slot array is make's zeroed memory, and a probe that
	// misses reads 4 bytes a slot.
	heads []int32
	tails []int32 // last entry per slot (insertion-order chaining)
	keys  []int64 // typedKey.ik under the fixed-width modes; equal keys need no hash check
	// The string mode's keys and hashes, by slot.
	skeys   []string
	shashes []uint64
	ents    []entry
	used    int
	// batches is how many build-side batches filled the table: what a join
	// that reuses the memoised table reports as its build scan.
	batches int64
	// cols are the build rows a memoised table addresses when they are not
	// the store's own vectors: those gathered from a chained store's
	// chunks. nil when the row ids index the store's vectors.
	cols []*store.Vec
}

// entry is one build row in its key's chain.
type entry struct {
	row  int32 // build-side row id
	next int32 // the key's next entry; -1 ends the chain
}

// newJoinTable sizes a table for expect distinct keys and expect entries,
// so a build that knows its row count neither grows the slot arrays nor
// reallocates the entry array.
func newJoinTable(mode keyMode, expect int64) *joinTable {
	capacity := 16
	for int64(capacity)*3 < expect*4 {
		capacity <<= 1
	}
	t := &joinTable{mode: mode, ents: make([]entry, 0, expect)}
	t.alloc(capacity)
	return t
}

func (t *joinTable) alloc(capacity int) {
	t.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	t.mask = uint64(capacity - 1)
	t.heads = make([]int32, capacity)
	t.tails = make([]int32, capacity)
	if t.mode == keyModeString {
		t.skeys = make([]string, capacity)
		t.shashes = make([]uint64, capacity)
	} else {
		t.keys = make([]int64, capacity)
	}
}

// keyEq reports whether occupied slot i holds k.
func (t *joinTable) keyEq(i uint64, k typedKey) bool {
	if t.mode == keyModeString {
		return t.shashes[i] == k.h && t.skeys[i] == k.sk
	}
	return t.keys[i] == k.ik
}

// insert adds one build row under k.
func (t *joinTable) insert(k typedKey, row int32) {
	if (t.used+1)*4 > len(t.heads)*3 {
		t.grow()
	}
	i := k.h >> t.shift
	for t.heads[i] != 0 && !t.keyEq(i, k) {
		i = (i + 1) & t.mask
	}
	e := int32(len(t.ents))
	t.ents = append(t.ents, entry{row: row, next: -1})
	if t.heads[i] != 0 {
		t.ents[t.tails[i]].next = e
		t.tails[i] = e
		return
	}
	t.heads[i], t.tails[i] = e+1, e
	if t.mode == keyModeString {
		t.skeys[i], t.shashes[i] = k.sk, k.h
	} else {
		t.keys[i] = k.ik
	}
	t.used++
}

// sizeBytes is the table's memory: its slot arrays and entries, and the
// build rows it gathered (cols). A string key shares its bytes with the
// build side's vector.
func (t *joinTable) sizeBytes() int64 {
	slots := int64(cap(t.heads)+cap(t.tails))*4 + int64(cap(t.keys)+cap(t.shashes))*8 + int64(cap(t.skeys))*16
	sz := slots + int64(cap(t.ents))*8 + 64
	for _, c := range t.cols {
		sz += c.SizeBytes()
	}
	return sz
}

// findInt is lookup for a fixed-width key ik hashing to h; small enough to
// inline into the GROUP BY index's loop.
func (t *joinTable) findInt(ik int64, h uint64) int32 {
	i := h >> t.shift
	for t.heads[i] != 0 && t.keys[i] != ik {
		i = (i + 1) & t.mask
	}
	return t.heads[i] - 1
}

// lookup returns the first chained entry for k, or -1; callers walk the
// chain through ents[e].next.
func (t *joinTable) lookup(k typedKey) int32 {
	i := k.h >> t.shift
	for t.heads[i] != 0 && !t.keyEq(i, k) {
		i = (i + 1) & t.mask
	}
	return t.heads[i] - 1
}

// grow doubles the slot arrays, re-placing occupied slots by their keys'
// hashes; the entries (chains, row-ids) are untouched.
func (t *joinTable) grow() {
	oldHeads, oldTails, oldKeys, oldS, oldH := t.heads, t.tails, t.keys, t.skeys, t.shashes
	t.alloc(len(oldHeads) * 2)
	for j, head := range oldHeads {
		if head == 0 {
			continue
		}
		var h uint64
		if t.mode == keyModeString {
			h = oldH[j]
		} else {
			h = hashUint(uint64(oldKeys[j]))
		}
		i := h >> t.shift
		for t.heads[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.heads[i], t.tails[i] = head, oldTails[j]
		if t.mode == keyModeString {
			t.skeys[i], t.shashes[i] = oldS[j], h
		} else {
			t.keys[i] = oldKeys[j]
		}
	}
}

// vecJoin is the compile-time plan of a hash join: each side's source and
// the batch column holding its key.
type vecJoin struct {
	lsrc, rsrc   vecSource
	lslot, rslot int
	mode         keyMode
	ln, rn       int
}

func compileJoin(j *plan.Join, deps Deps) (*joinSource, error) {
	lt, err := j.LeftKey.Type(j.Left.OutSchema())
	if err != nil {
		return nil, err
	}
	rt, err := j.RightKey.Type(j.Right.OutSchema())
	if err != nil {
		return nil, err
	}
	mode, typed := joinKeyMode(lt.Kind, rt.Kind)
	if !typed {
		mode = keyModeString
	}
	vj := &vecJoin{mode: mode, ln: len(j.Left.OutSchema().Fields), rn: len(j.Right.OutSchema().Fields)}
	if vj.lsrc, vj.lslot, err = joinSide(j.Left, j.LeftKey, typed, deps); err != nil {
		return nil, err
	}
	if vj.rsrc, vj.rslot, err = joinSide(j.Right, j.RightKey, typed, deps); err != nil {
		return nil, err
	}
	return &joinSource{vj: vj}, nil
}

// joinSide compiles one side of a join and resolves its key to a batch
// column: a plain column reference under a typed mode is that column; any
// other key is computed by the generic kernel into a column appended to
// the side's (evalSource) — rendered as a string when the pair has no
// typed mode.
func joinSide(n plan.Node, key expr.Expr, typed bool, deps Deps) (vecSource, int, error) {
	src, err := compile(n, deps)
	if err != nil {
		return nil, 0, err
	}
	in := n.OutSchema()
	if slot, ok := expr.ColSlot(key, in); ok && typed {
		return src, slot, nil
	}
	exprs := make([]expr.Expr, len(in.Fields), len(in.Fields)+1)
	for i, f := range in.Fields {
		exprs[i] = &expr.Col{Path: value.Path{f.Name}}
	}
	es, err := newEvalSource(src, in, append(exprs, key))
	if err != nil {
		return nil, 0, err
	}
	if k := len(in.Fields); !typed {
		ev, err := expr.Compile(key, in)
		if err != nil {
			return nil, 0, err
		}
		es.slots[k], es.kinds[k] = -1, value.String
		es.evals[k] = func(r expr.Row) value.Value {
			if v := ev(r); v.Kind != value.Null {
				return value.VString(v.String())
			}
			return value.VNull
		}
	}
	return es, len(in.Fields), nil
}

// build returns the build side's columns and hash table. A build side that
// reads a cache entry whole — an exact hit, no residual, no filter pushed
// into the scan — hashes an immutable store the same way every time, so
// its table is memoised on the entry (Manager.AttachJoinTable) under the
// store snapshot, the key column and the key mode, and a later join reuses
// it. A chained store's cursor switches its vectors at each chunk
// boundary, so its build rows are gathered (buildTable) and the memo keeps
// them beside the table. A reuse still reports the batches the table was
// built from, so the scan's accounting is the same either way.
func (vj *vecJoin) build(ctx *qctx, liter vecIter) ([]*store.Vec, *joinTable) {
	sc, ok := liter.(*scanIter)
	m := ctx.deps.Manager
	if !ok || sc.s.cs.Residual != nil || len(sc.s.filters) > 1 {
		return vj.buildTable(liter)
	}
	k := cache.JoinTableKey{Store: sc.st, Col: sc.s.outNames[vj.lslot], Mode: uint8(vj.mode), Flat: sc.s.cs.Flat}
	if t, ok := m.JoinTable(sc.s.entry, k).(*joinTable); ok {
		sc.batches = t.batches
		if t.cols != nil {
			return t.cols, t
		}
		return sc.Cols(), t
	}
	bcols, t := vj.buildTable(liter)
	t.batches = sc.batches
	if !sc.Stable() {
		t.cols = bcols
	}
	m.AttachJoinTable(sc.s.entry, k, t, t.sizeBytes())
	return bcols, t
}

// buildTable drains the build-side iterator into a typed table. When the
// iterator is stable (a cache scan), build rows are stored as row-ids into
// the retained full-length vectors — zero copies; otherwise (a nested
// join's gathered batches, a miss's or a lazy replay's chunks) each batch's
// selected rows are gathered into fresh typed vectors and row-ids address
// those. Null and NaN keys never enter the table. The caller closes the
// iterator.
func (vj *vecJoin) buildTable(liter vecIter) (bcols []*store.Vec, table *joinTable) {
	stable := liter.Stable()
	var expect int64
	var ids []int32
	if stable {
		bcols = liter.Cols()
		if len(bcols) > 0 {
			expect = int64(bcols[0].Len())
		}
	} else {
		kinds := liter.Kinds()
		bcols = make([]*store.Vec, len(kinds))
		for i, k := range kinds {
			bcols[i] = store.NewVec(k)
		}
	}
	table = newJoinTable(vj.mode, expect)
	for {
		cols, sel, ok := liter.Next()
		if !ok {
			break
		}
		if len(sel) == 0 {
			continue
		}
		rows := sel
		if !stable {
			base := int32(bcols[0].Len())
			ids = ids[:0]
			for k := range sel {
				ids = append(ids, base+int32(k))
			}
			for i, c := range cols {
				bcols[i].AppendSel(c, sel)
			}
			rows = ids
		}
		table.insertBatch(cols[vj.lslot], sel, rows)
	}
	return bcols, table
}

// insertBatch inserts the keys kcol holds at sel, row sel[k] under build
// row-id rows[k]. The slot arrays grow once, up front, to room for every
// row as a new key, so the int and float modes run one loop on locals: the
// slot arrays read from them, the entries appended to one and written back
// once, the hash computed in place, no typedKey, and the per-row null test
// only when the selection's null words hold one.
func (t *joinTable) insertBatch(kcol *store.Vec, sel, rows []int32) {
	nulls := kcol.Nulls.AnySel(sel)
	mode := t.mode
	if mode != keyModeInt && mode != keyModeFloat {
		for k, r := range sel {
			if nulls && kcol.Nulls.Get(int(r)) {
				continue
			}
			if key, ok := colKey(kcol, r, mode); ok {
				t.insert(key, rows[k])
			}
		}
		return
	}
	for (t.used+len(sel))*4 > len(t.heads)*3 {
		t.grow()
	}
	shift, mask, heads, tails, keys := t.shift, t.mask, t.heads, t.tails, t.keys
	ents, used := t.ents, t.used
	for k, r := range sel {
		if nulls && kcol.Nulls.Get(int(r)) {
			continue
		}
		ik, ok := fixedKey(kcol, r, mode)
		if !ok {
			continue
		}
		i := hashUint(uint64(ik)) >> shift
		for heads[i] != 0 && keys[i] != ik {
			i = (i + 1) & mask
		}
		e := int32(len(ents))
		ents = append(ents, entry{row: rows[k], next: -1})
		if heads[i] != 0 {
			ents[tails[i]].next = e
		} else {
			heads[i], keys[i] = e+1, ik
			used++
		}
		tails[i] = e
	}
	t.ents, t.used = ents, used
}

// joinSource serves the join's output as batches.
type joinSource struct {
	vj *vecJoin
}

func (s *joinSource) open(ctx *qctx) (vecIter, error) {
	vj := s.vj
	liter, err := vj.lsrc.open(ctx)
	if err != nil {
		return nil, err
	}
	riter, err := vj.rsrc.open(ctx)
	if err != nil {
		return nil, err
	}
	lk, rk := liter.Kinds(), riter.Kinds()
	if !keyKindOK(vj.mode, lk[vj.lslot]) || !keyKindOK(vj.mode, rk[vj.rslot]) {
		return nil, fmt.Errorf("exec: join keys of kinds %s and %s", lk[vj.lslot], rk[vj.rslot])
	}
	kinds := make([]value.Kind, 0, vj.ln+vj.rn)
	kinds = append(append(kinds, lk[:vj.ln]...), rk[:vj.rn]...)
	return &joinIter{
		vj:    vj,
		ctx:   ctx,
		liter: liter,
		riter: riter,
		kinds: kinds,
		sel:   make([]int32, store.BatchRows),
	}, nil
}

// info reports the probe side's batches.
func (s *joinSource) info(deps Deps) (int64, bool) { return s.vj.rsrc.info(deps) }

// joinIter streams the gathered output batches of a join. The build runs
// on the first Next. Pairs found while probing one right-hand batch are flushed in
// BatchRows-sized chunks before the next right batch is pulled (the probe
// columns a chunk's rids address stay live until then, so unstable probe
// sources — nested joins — compose).
type joinIter struct {
	vj           *vecJoin
	ctx          *qctx
	liter        vecIter // consumed and closed by the first Next
	riter        vecIter
	err          error // what ended the build side's iteration
	bcols        []*store.Vec
	table        *joinTable
	kinds        []value.Kind
	rcols        []*store.Vec // current probe batch's columns
	lids, rids   []int32      // pending match pairs into bcols/rcols
	chains       []int32      // probeBatch's per-row first entries
	off          int
	sel          []int32 // identity selection scratch, refilled per chunk
	probeBatches int64
	probeNanos   int64
}

func (it *joinIter) Kinds() []value.Kind { return it.kinds }
func (it *joinIter) Stable() bool        { return false }
func (it *joinIter) Cols() []*store.Vec  { return nil }

func (it *joinIter) Next() ([]*store.Vec, []int32, bool) {
	vj := it.vj
	if it.liter != nil {
		t0 := time.Now()
		it.bcols, it.table = vj.build(it.ctx, it.liter)
		// The typed build is part of serving the left entry's batches:
		// feed it into that side's scan observation so the layout advisor
		// prices the join's read pattern, not just the cursor walk.
		if sink, ok := it.liter.(nanosSink); ok {
			sink.addScanNanos(time.Since(t0).Nanoseconds())
		}
		it.err = it.liter.Close(it.ctx)
		it.liter = nil
	}
	for it.err == nil && it.off >= len(it.lids) {
		cols, sel, ok := it.riter.Next()
		if !ok {
			return nil, nil, false
		}
		it.probeBatches++
		it.rcols = cols
		it.lids, it.rids = it.lids[:0], it.rids[:0]
		it.off = 0
		if len(sel) == 0 {
			continue
		}
		t0 := time.Now()
		it.probeBatch(cols[vj.rslot], sel)
		it.probeNanos += time.Since(t0).Nanoseconds()
	}
	if it.err != nil {
		return nil, nil, false
	}
	n := len(it.lids) - it.off
	if n > store.BatchRows {
		n = store.BatchRows
	}
	lpart := it.lids[it.off : it.off+n]
	rpart := it.rids[it.off : it.off+n]
	it.off += n
	out := make([]*store.Vec, vj.ln+vj.rn)
	for i, c := range it.bcols[:vj.ln] {
		out[i] = store.Gather(c, lpart)
	}
	for i, c := range it.rcols[:vj.rn] {
		out[vj.ln+i] = store.Gather(c, rpart)
	}
	for i := 0; i < n; i++ {
		it.sel[i] = int32(i)
	}
	return out, it.sel[:n], true
}

// probeBatch probes one right-hand batch's key column through the table,
// appending match pairs, in two loops on locals written back once. The
// first finds each selected row's chain (-1 for a miss, a NULL or a NaN
// key): its lookups are independent of one another, so their cache misses
// overlap, and the int and float modes — the hot shapes of analytical
// joins — probe in place with no typedKey. The second expands the chains
// into pairs, for every mode.
func (it *joinIter) probeBatch(kcol *store.Vec, sel []int32) {
	t, mode := it.table, it.vj.mode
	if cap(it.chains) < len(sel) {
		it.chains = make([]int32, max(len(sel), store.BatchRows))
	}
	chains := it.chains[:len(sel)]
	nulls := kcol.Nulls.AnySel(sel)
	fixed := mode == keyModeInt || mode == keyModeFloat
	shift, mask, heads, keys := t.shift, t.mask, t.heads, t.keys
	for k, r := range sel {
		chains[k] = -1
		if nulls && kcol.Nulls.Get(int(r)) {
			continue
		}
		if !fixed {
			if key, ok := colKey(kcol, r, mode); ok {
				chains[k] = t.lookup(key)
			}
			continue
		}
		ik, ok := fixedKey(kcol, r, mode)
		if !ok {
			continue
		}
		i := hashUint(uint64(ik)) >> shift
		for heads[i] != 0 && keys[i] != ik {
			i = (i + 1) & mask
		}
		chains[k] = heads[i] - 1
	}
	lids, rids, ents := it.lids, it.rids, t.ents
	for k, e := range chains {
		for ; e >= 0; e = ents[e].next {
			lids, rids = append(lids, ents[e].row), append(rids, sel[k])
		}
	}
	it.lids, it.rids = lids, rids
}

func (it *joinIter) Close(ctx *qctx) error {
	if it.err != nil {
		return it.err
	}
	// Probe time is work spent consuming the right side's batches: route
	// it into that entry's scan observation (when the probe source is a
	// cache scan) so measured join-probe nanos reach the layout advisor.
	if sink, ok := it.riter.(nanosSink); ok {
		sink.addScanNanos(it.probeNanos)
	}
	if err := it.riter.Close(ctx); err != nil {
		return err
	}
	ctx.deps.Manager.NoteVectorizedJoin(it.probeBatches)
	return nil
}

// VectorizedJoinInfo reports whether a Join's inputs are readable right
// now, and the expected probe batch count. EXPLAIN uses it; it only reads
// entry payload snapshots.
func VectorizedJoinInfo(j *plan.Join, m *cache.Manager) (bool, int64) {
	deps := Deps{Manager: m}
	s, err := compileJoin(j, deps)
	if err != nil {
		return false, 0
	}
	if _, ok := s.vj.lsrc.info(deps); !ok {
		return false, 0
	}
	batches, ok := s.info(deps)
	return ok, batches
}
