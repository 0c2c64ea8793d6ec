package exec

import (
	"math"
	"time"

	"recache/internal/cache"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// This file is the batch-native hash join: the second compiled join flavor
// that keeps the vectorized pipeline intact across the last row-at-a-time
// operator. The build side hashes its key column straight out of cache
// batches into a typed open-addressing table — no interface boxing, and
// build rows are stored as row-ids into the retained column vectors rather
// than copied slices — and the probe side scans right-hand batches emitting
// matched (build-row, probe-row) pairs, gathered into joined output batches
// so a downstream vectorized Aggregate/Project never sees a boxed row.
//
// Flavor choice is per compile with per-execution degradation: when only
// one side's batches open at run time (lazy entry, Parquet FSM view), the
// join crosses the batch→row boundary on the row side — typed table from
// batches probed by rows, or a row-built arena probed by batches — and
// when neither opens it falls all the way back to the boxed row join. All flavors produce identical results (joinvec_test.go holds
// them to it), including the row path's float key semantics: +0 and -0
// join each other, NaN keys never match.

// keyMode is the typed representation join keys normalize into, derived
// from the two key column kinds exactly as the row path's makeJoinKey
// does (both-int stays int; any numeric mix compares as float64).
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

// joinFloatBits canonicalizes a float join key: +0 and -0 collapse (Go map
// keys — the row path's table — treat them as equal), while NaN never
// reaches here (callers drop NaN keys on both sides, matching the row
// path where a NaN key hashes into the map but can never compare equal).
func joinFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

func hashUint(x uint64) uint64 { return mix(fnvOffset, x) }

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return h
}

// typedKey holds one normalized join key; exactly the field matching the
// table's mode is meaningful.
type typedKey struct {
	h  uint64
	ik int64
	fk uint64
	sk string
	bk bool
}

// colKey extracts and normalizes the key at v[r]. ok is false when the row
// cannot join (NaN under float mode); callers handle nulls beforehand.
func colKey(v *store.Vec, r int32, mode keyMode) (typedKey, bool) {
	var k typedKey
	switch mode {
	case keyModeInt:
		k.ik = v.Ints[r]
		k.h = hashUint(uint64(k.ik))
	case keyModeFloat:
		var f float64
		if v.Kind == value.Int {
			f = float64(v.Ints[r])
		} else {
			f = v.Floats[r]
		}
		if f != f {
			return k, false
		}
		k.fk = joinFloatBits(f)
		k.h = hashUint(k.fk)
	case keyModeString:
		k.sk = v.Strs[r]
		k.h = hashString(k.sk)
	default:
		k.bk = v.Bools[r]
		if k.bk {
			k.h = hashUint(1)
		} else {
			k.h = hashUint(0)
		}
	}
	return k, true
}

// valKey is colKey for a boxed row-side value (the mixed flavors). A null
// or NaN key never joins.
func valKey(v value.Value, mode keyMode) (typedKey, bool) {
	var k typedKey
	if v.Kind == value.Null {
		return k, false
	}
	switch mode {
	case keyModeInt:
		k.ik = v.I
		k.h = hashUint(uint64(k.ik))
	case keyModeFloat:
		f := v.AsFloat()
		if f != f {
			return k, false
		}
		k.fk = joinFloatBits(f)
		k.h = hashUint(k.fk)
	case keyModeString:
		k.sk = v.S
		k.h = hashString(k.sk)
	default:
		k.bk = v.B
		if k.bk {
			k.h = hashUint(1)
		} else {
			k.h = hashUint(0)
		}
	}
	return k, true
}

// joinTable is the typed open-addressing hash table of the build side. One
// slot per distinct key (linear probing), with duplicate-key rows chained
// through an entry list in insertion order — probe output therefore lists
// a key's build rows in the same order the row path's slice-append table
// does, keeping non-aggregated join results byte-identical across flavors.
type joinTable struct {
	mode   keyMode
	mask   uint64
	hashes []uint64
	heads  []int32 // first entry per slot; -1 marks an empty slot
	tails  []int32 // last entry per slot (insertion-order chaining)
	ikeys  []int64
	fkeys  []uint64
	skeys  []string
	bkeys  []bool
	// entry arrays, indexed by chain links:
	next []int32
	rows []int32 // build-side row-id payload
	used int
}

func newJoinTable(mode keyMode, expect int64) *joinTable {
	capacity := 16
	for int64(capacity)*3 < expect*4 {
		capacity <<= 1
	}
	t := &joinTable{mode: mode}
	t.alloc(capacity)
	return t
}

func (t *joinTable) alloc(capacity int) {
	t.mask = uint64(capacity - 1)
	t.hashes = make([]uint64, capacity)
	t.heads = make([]int32, capacity)
	t.tails = make([]int32, capacity)
	for i := range t.heads {
		t.heads[i] = -1
	}
	switch t.mode {
	case keyModeInt:
		t.ikeys = make([]int64, capacity)
	case keyModeFloat:
		t.fkeys = make([]uint64, capacity)
	case keyModeString:
		t.skeys = make([]string, capacity)
	default:
		t.bkeys = make([]bool, capacity)
	}
}

func (t *joinTable) keyEq(i uint64, k typedKey) bool {
	switch t.mode {
	case keyModeInt:
		return t.ikeys[i] == k.ik
	case keyModeFloat:
		return t.fkeys[i] == k.fk
	case keyModeString:
		return t.skeys[i] == k.sk
	default:
		return t.bkeys[i] == k.bk
	}
}

func (t *joinTable) setKey(i uint64, k typedKey) {
	switch t.mode {
	case keyModeInt:
		t.ikeys[i] = k.ik
	case keyModeFloat:
		t.fkeys[i] = k.fk
	case keyModeString:
		t.skeys[i] = k.sk
	default:
		t.bkeys[i] = k.bk
	}
}

// insert adds one build row under k.
func (t *joinTable) insert(k typedKey, row int32) {
	if (t.used+1)*4 > len(t.heads)*3 {
		t.grow()
	}
	i := k.h & t.mask
	for t.heads[i] >= 0 {
		if t.hashes[i] == k.h && t.keyEq(i, k) {
			t.chain(i, row)
			return
		}
		i = (i + 1) & t.mask
	}
	t.setKey(i, k)
	t.claim(i, k.h, row)
}

// insertInt is insert for an int-mode key ik hashing to h: the typed
// build and the GROUP BY index call it without building a typedKey.
func (t *joinTable) insertInt(ik int64, h uint64, row int32) {
	if (t.used+1)*4 > len(t.heads)*3 {
		t.grow()
	}
	i := h & t.mask
	for t.heads[i] >= 0 {
		if t.hashes[i] == h && t.ikeys[i] == ik {
			t.chain(i, row)
			return
		}
		i = (i + 1) & t.mask
	}
	t.ikeys[i] = ik
	t.claim(i, h, row)
}

// insertFloat is insertInt for a float-mode key (canonical bits fk).
func (t *joinTable) insertFloat(fk, h uint64, row int32) {
	if (t.used+1)*4 > len(t.heads)*3 {
		t.grow()
	}
	i := h & t.mask
	for t.heads[i] >= 0 {
		if t.hashes[i] == h && t.fkeys[i] == fk {
			t.chain(i, row)
			return
		}
		i = (i + 1) & t.mask
	}
	t.fkeys[i] = fk
	t.claim(i, h, row)
}

// claim makes empty slot i (its key already set) the head of a new chain
// holding row.
func (t *joinTable) claim(i, h uint64, row int32) {
	t.used++
	t.hashes[i] = h
	e := t.entry(row)
	t.heads[i], t.tails[i] = e, e
}

// chain appends row to the end of slot i's chain.
func (t *joinTable) chain(i uint64, row int32) {
	e := t.entry(row)
	t.next[t.tails[i]] = e
	t.tails[i] = e
}

func (t *joinTable) entry(row int32) int32 {
	e := int32(len(t.rows))
	t.rows = append(t.rows, row)
	t.next = append(t.next, -1)
	return e
}

// findInt is lookup for an int-mode key ik hashing to h; small enough to
// inline into the probe and GROUP BY loops.
func (t *joinTable) findInt(ik int64, h uint64) int32 {
	for i := h & t.mask; t.heads[i] >= 0; i = (i + 1) & t.mask {
		if t.hashes[i] == h && t.ikeys[i] == ik {
			return t.heads[i]
		}
	}
	return -1
}

// findFloat is findInt for a float-mode key (canonical bits fk).
func (t *joinTable) findFloat(fk, h uint64) int32 {
	for i := h & t.mask; t.heads[i] >= 0; i = (i + 1) & t.mask {
		if t.hashes[i] == h && t.fkeys[i] == fk {
			return t.heads[i]
		}
	}
	return -1
}

// lookup returns the first chained entry for k, or -1; callers walk the
// chain through t.next.
func (t *joinTable) lookup(k typedKey) int32 {
	i := k.h & t.mask
	for {
		if t.heads[i] < 0 {
			return -1
		}
		if t.hashes[i] == k.h && t.keyEq(i, k) {
			return t.heads[i]
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot arrays, re-placing occupied slots by their stored
// hashes; the entry arrays (chains, row-ids) are untouched.
func (t *joinTable) grow() {
	oldHashes, oldHeads, oldTails := t.hashes, t.heads, t.tails
	oldI, oldF, oldS, oldB := t.ikeys, t.fkeys, t.skeys, t.bkeys
	t.alloc(len(oldHeads) * 2)
	for j, h := range oldHeads {
		if h < 0 {
			continue
		}
		i := oldHashes[j] & t.mask
		for t.heads[i] >= 0 {
			i = (i + 1) & t.mask
		}
		t.hashes[i], t.heads[i], t.tails[i] = oldHashes[j], h, oldTails[j]
		switch t.mode {
		case keyModeInt:
			t.ikeys[i] = oldI[j]
		case keyModeFloat:
			t.fkeys[i] = oldF[j]
		case keyModeString:
			t.skeys[i] = oldS[j]
		default:
			t.bkeys[i] = oldB[j]
		}
	}
}

// vecJoin is the compile-time plan of a batch-native hash join. A nil
// lsrc/rsrc means that side can never serve batches (it stays a row input
// in the mixed flavors); both non-nil is required for batch output.
type vecJoin struct {
	lsrc, rsrc   vecSource
	lslot, rslot int
	mode         keyMode
	ln, rn       int
}

// planVecJoin checks the compile-time half of join vectorizability: key
// columns resolvable to single batch slots (expr.ColSlot), a typed key
// mode for the kind pair, and at least one side peelable to a batch
// source. ok is false when every execution must take the row join.
func planVecJoin(j *plan.Join, deps Deps) (*vecJoin, bool) {
	if deps.DisableVectorized {
		return nil, false
	}
	lt, err := j.LeftKey.Type(j.Left.OutSchema())
	if err != nil {
		return nil, false
	}
	rt, err := j.RightKey.Type(j.Right.OutSchema())
	if err != nil {
		return nil, false
	}
	mode, ok := joinKeyMode(lt.Kind, rt.Kind)
	if !ok {
		return nil, false
	}
	vj := &vecJoin{
		mode: mode,
		ln:   len(j.Left.OutSchema().Fields),
		rn:   len(j.Right.OutSchema().Fields),
	}
	if slot, ok := expr.ColSlot(j.LeftKey, j.Left.OutSchema()); ok {
		if src, ok := peelVecSource(j.Left, deps); ok {
			vj.lsrc, vj.lslot = src, slot
		}
	}
	if slot, ok := expr.ColSlot(j.RightKey, j.Right.OutSchema()); ok {
		if src, ok := peelVecSource(j.Right, deps); ok {
			vj.rsrc, vj.rslot = src, slot
		}
	}
	if vj.lsrc == nil && vj.rsrc == nil {
		return nil, false
	}
	return vj, true
}

// buildTable drains the build-side iterator into a typed table. When the
// iterator is stable (a cache scan), build rows are stored as row-ids into
// the retained full-length vectors — zero copies; otherwise (a nested
// join's gathered batches) the selected rows are appended into fresh typed
// vectors and row-ids address those. Null and NaN keys never enter the
// table. The caller closes the iterator.
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
			ids = ids[:0]
			for _, r := range sel {
				ids = append(ids, int32(bcols[0].Len()))
				for i, c := range cols {
					bcols[i].AppendFrom(c, int(r))
				}
			}
			rows = ids
		}
		table.insertBatch(cols[vj.lslot], sel, rows)
	}
	return bcols, table
}

// insertBatch inserts the keys kcol holds at sel, row sel[k] under build
// row-id rows[k]. The int and float modes run the same inlined loops as
// the probe: direct slice reads, the hash computed in place, no typedKey,
// and the per-row null test only when the selection's null words hold one.
func (t *joinTable) insertBatch(kcol *store.Vec, sel, rows []int32) {
	nulls := kcol.Nulls.AnySel(sel)
	switch t.mode {
	case keyModeInt:
		ks := kcol.Ints
		for k, r := range sel {
			if nulls && kcol.Nulls.Get(int(r)) {
				continue
			}
			ik := ks[r]
			t.insertInt(ik, hashUint(uint64(ik)), rows[k])
		}
	case keyModeFloat:
		isInt := kcol.Kind == value.Int
		for k, r := range sel {
			if nulls && kcol.Nulls.Get(int(r)) {
				continue
			}
			var f float64
			if isInt {
				f = float64(kcol.Ints[r])
			} else {
				f = kcol.Floats[r]
			}
			if f != f {
				continue
			}
			fk := joinFloatBits(f)
			t.insertFloat(fk, hashUint(fk), rows[k])
		}
	default:
		for k, r := range sel {
			if nulls && kcol.Nulls.Get(int(r)) {
				continue
			}
			if key, ok := colKey(kcol, r, t.mode); ok {
				t.insert(key, rows[k])
			}
		}
	}
}

// joinSource serves the fully vectorized flavor as a batch source for a
// downstream vectorized Aggregate/Project (or the batch→row boundary).
type joinSource struct {
	vj *vecJoin
}

func (s *joinSource) open(ctx *qctx) (vecIter, bool) {
	vj := s.vj
	if vj.lsrc == nil || vj.rsrc == nil {
		return nil, false
	}
	liter, ok := vj.lsrc.open(ctx)
	if !ok {
		return nil, false
	}
	riter, ok := vj.rsrc.open(ctx)
	if !ok {
		return nil, false
	}
	lk, rk := liter.Kinds(), riter.Kinds()
	if !keyKindOK(vj.mode, lk[vj.lslot]) || !keyKindOK(vj.mode, rk[vj.rslot]) {
		return nil, false
	}
	kinds := make([]value.Kind, 0, len(lk)+len(rk))
	kinds = append(append(kinds, lk...), rk...)
	return &joinIter{
		vj:    vj,
		ctx:   ctx,
		liter: liter,
		riter: riter,
		kinds: kinds,
		sel:   make([]int32, store.BatchRows),
	}, true
}

func (s *joinSource) info(deps Deps) (int64, bool) {
	if s.vj.lsrc == nil || s.vj.rsrc == nil {
		return 0, false
	}
	if _, ok := s.vj.lsrc.info(deps); !ok {
		return 0, false
	}
	return s.vj.rsrc.info(deps)
}

// joinIter streams the gathered output batches of a vectorized join. The
// build runs lazily on the first Next, so a consumer that opens the
// source but bails to its row fallback before consuming anything (the
// aggregate's kind guard) wastes no build work and attributes nothing
// twice. Pairs found while probing one right-hand batch are flushed in
// BatchRows-sized chunks before the next right batch is pulled (the probe
// columns a chunk's rids address stay live until then, so unstable probe
// sources — nested joins — compose).
type joinIter struct {
	vj           *vecJoin
	ctx          *qctx
	liter        vecIter // consumed and closed by the first Next
	riter        vecIter
	bcols        []*store.Vec
	table        *joinTable
	kinds        []value.Kind
	rcols        []*store.Vec // current probe batch's columns
	lids, rids   []int32      // pending match pairs into bcols/rcols
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
		it.bcols, it.table = vj.buildTable(it.liter)
		// The typed build is part of serving the left entry's batches:
		// feed it into that side's scan observation so the layout advisor
		// prices the join's read pattern, not just the cursor walk.
		if sink, ok := it.liter.(nanosSink); ok {
			sink.addScanNanos(time.Since(t0).Nanoseconds())
		}
		it.liter.Close(it.ctx)
		it.liter = nil
	}
	for it.off >= len(it.lids) {
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
	n := len(it.lids) - it.off
	if n > store.BatchRows {
		n = store.BatchRows
	}
	lpart := it.lids[it.off : it.off+n]
	rpart := it.rids[it.off : it.off+n]
	it.off += n
	out := make([]*store.Vec, vj.ln+vj.rn)
	for i, c := range it.bcols {
		out[i] = store.Gather(c, lpart)
	}
	for i, c := range it.rcols {
		out[vj.ln+i] = store.Gather(c, rpart)
	}
	for i := 0; i < n; i++ {
		it.sel[i] = int32(i)
	}
	return out, it.sel[:n], true
}

// probeBatch probes one right-hand batch's key column through the table,
// appending match pairs. The int and float modes — the hot shapes of
// analytical joins — run fully inlined loops: direct slice reads, linear
// probing in place (findInt/findFloat), no per-row kind dispatch, and the
// per-row null test skipped when the selection's null words hold no null.
func (it *joinIter) probeBatch(kcol *store.Vec, sel []int32) {
	t := it.table
	hasNulls := kcol.Nulls.AnySel(sel)
	switch it.vj.mode {
	case keyModeInt:
		ks := kcol.Ints
		for _, r := range sel {
			if hasNulls && kcol.Nulls.Get(int(r)) {
				continue
			}
			ik := ks[r]
			for e := t.findInt(ik, hashUint(uint64(ik))); e >= 0; e = t.next[e] {
				it.lids = append(it.lids, t.rows[e])
				it.rids = append(it.rids, r)
			}
		}
	case keyModeFloat:
		isInt := kcol.Kind == value.Int
		for _, r := range sel {
			if hasNulls && kcol.Nulls.Get(int(r)) {
				continue
			}
			var f float64
			if isInt {
				f = float64(kcol.Ints[r])
			} else {
				f = kcol.Floats[r]
			}
			if f != f {
				continue
			}
			fk := joinFloatBits(f)
			for e := t.findFloat(fk, hashUint(fk)); e >= 0; e = t.next[e] {
				it.lids = append(it.lids, t.rows[e])
				it.rids = append(it.rids, r)
			}
		}
	default:
		for _, r := range sel {
			if hasNulls && kcol.Nulls.Get(int(r)) {
				continue
			}
			k, ok := colKey(kcol, r, it.vj.mode)
			if !ok {
				continue
			}
			for e := t.lookup(k); e >= 0; e = t.next[e] {
				it.lids = append(it.lids, t.rows[e])
				it.rids = append(it.rids, r)
			}
		}
	}
}

func (it *joinIter) Close(ctx *qctx) {
	// Probe time is work spent consuming the right side's batches: route
	// it into that entry's scan observation (when the probe source is a
	// cache scan) so measured join-probe nanos reach the layout advisor.
	if sink, ok := it.riter.(nanosSink); ok {
		sink.addScanNanos(it.probeNanos)
	}
	it.riter.Close(ctx)
	if ctx.deps.Manager != nil {
		ctx.deps.Manager.NoteVectorizedJoin(it.probeBatches)
	}
}

// --- mixed flavors: batch→row boundary on one side ---

// runBuildVec joins a batch build side against a row probe side: the typed
// table and retained build columns come from batches, each probe row boxes
// only its matches' left values at the boundary.
func (vj *vecJoin) runBuildVec(ctx *qctx, liter vecIter, parts *joinParts, out emitFn) error {
	bcols, table := vj.buildTable(liter)
	liter.Close(ctx)
	buf := make([]value.Value, vj.ln+vj.rn)
	return parts.right(ctx, func(row []value.Value) error {
		k, ok := valKey(parts.rkey(row), vj.mode)
		if !ok {
			return nil
		}
		for e := table.lookup(k); e >= 0; e = table.next[e] {
			lr := int(table.rows[e])
			for i, c := range bcols {
				buf[i] = c.Get(lr)
			}
			copy(buf[vj.ln:], row)
			if err := out(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// runProbeVec joins a row build side against a batch probe side: build
// rows land in a chunked arena keyed through the same typed table, and the
// probe drains batches, boxing only matched rows at the boundary.
func (vj *vecJoin) runProbeVec(ctx *qctx, riter vecIter, parts *joinParts, out emitFn) error {
	table := newJoinTable(vj.mode, 0)
	var arena rowArena
	var rows [][]value.Value
	if err := parts.left(ctx, func(row []value.Value) error {
		k, ok := valKey(parts.lkey(row), vj.mode)
		if !ok {
			return nil
		}
		table.insert(k, int32(len(rows)))
		rows = append(rows, arena.save(row))
		return nil
	}); err != nil {
		return err
	}
	buf := make([]value.Value, vj.ln+vj.rn)
	for {
		cols, sel, ok := riter.Next()
		if !ok {
			break
		}
		if len(sel) == 0 {
			continue
		}
		kcol := cols[vj.rslot]
		for _, r := range sel {
			if kcol.Nulls.Get(int(r)) {
				continue
			}
			k, ok := colKey(kcol, r, vj.mode)
			if !ok {
				continue
			}
			for e := table.lookup(k); e >= 0; e = table.next[e] {
				copy(buf, rows[table.rows[e]])
				for i, c := range cols {
					buf[vj.ln+i] = c.Get(int(r))
				}
				if err := out(buf); err != nil {
					return err
				}
			}
		}
	}
	riter.Close(ctx)
	return nil
}

// compileJoinAuto compiles every join flavor and picks per execution: the
// fully vectorized join when both sides serve batches, a mixed flavor when
// one does, the arena row join when neither does. The mixed checks reuse
// the very sources the full flavor compiled — an execution degrades one
// side at a time as payload snapshots allow.
func compileJoinAuto(j *plan.Join, deps Deps) (runFn, error) {
	parts, err := compileJoinParts(j, deps)
	if err != nil {
		return nil, err
	}
	rowFn := parts.rowJoin()
	vj, ok := planVecJoin(j, deps)
	if !ok {
		return rowFn, nil
	}
	full := &joinSource{vj: vj}
	return func(ctx *qctx, out emitFn) error {
		if it, ok := full.open(ctx); ok {
			return emitIter(ctx, it, nil, out)
		}
		if vj.lsrc != nil {
			if liter, ok := vj.lsrc.open(ctx); ok && keyKindOK(vj.mode, liter.Kinds()[vj.lslot]) {
				return vj.runBuildVec(ctx, liter, parts, out)
			}
		}
		if vj.rsrc != nil {
			if riter, ok := vj.rsrc.open(ctx); ok && keyKindOK(vj.mode, riter.Kinds()[vj.rslot]) {
				return vj.runProbeVec(ctx, riter, parts, out)
			}
		}
		return rowFn(ctx, out)
	}, nil
}

// VectorizedJoinInfo reports whether a Join would take the fully
// vectorized pipeline if executed now, and the expected probe batch count.
// EXPLAIN uses it; it only reads entry payload snapshots.
func VectorizedJoinInfo(j *plan.Join, m *cache.Manager, disableVec bool) (bool, int64) {
	deps := Deps{Manager: m, DisableVectorized: disableVec}
	vj, ok := planVecJoin(j, deps)
	if !ok {
		return false, 0
	}
	batches, ok := (&joinSource{vj: vj}).info(deps)
	if !ok {
		return false, 0
	}
	return true, batches
}
