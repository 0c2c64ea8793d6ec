package exec

import (
	"math"
	"strings"

	"recache/internal/store"
	"recache/internal/value"
)

// vgroup is one GROUP BY group of the vectorized aggregation: its key
// values and rendered sort key. Its accumulators live in per-aggregate
// slices indexed by group, so a typed fold walks one aggregate at a time.
type vgroup struct {
	keys    []value.Value
	sortKey string // rendered key: the output order
}

// groupIndex resolves batch rows to group indexes. A single Int key goes
// through the join's typed table (key → group index in the row payload),
// its NULL key kept aside; any other key shape hashes the typed key columns
// and compares candidates against the groups' materialized keys.
type groupIndex struct {
	gcols    []int
	groups   []vgroup
	ints     *joinTable
	nullG    int32 // the NULL key's group under ints; -1 until seen
	hashed   map[uint64][]int32
	nullable []bool  // per key column: the batch's null words hold a null
	gidx     []int32 // resolve's output buffer: the batch's group per selected row
}

func newGroupIndex(gcols []int, kinds []value.Kind) *groupIndex {
	gi := &groupIndex{gcols: gcols, nullG: -1}
	if len(gcols) == 1 && kinds[gcols[0]] == value.Int {
		gi.ints = newJoinTable(keyModeInt, 0)
	} else {
		gi.hashed = make(map[uint64][]int32)
	}
	return gi
}

// resolve returns the group of every row of sel, in order, adding a group
// per first-seen key. It writes into gi.gidx, one slot per row, so the loop
// keeps its output in a local instead of appending through gi.
func (gi *groupIndex) resolve(cols []*store.Vec, sel []int32) []int32 {
	if cap(gi.gidx) < len(sel) {
		gi.gidx = make([]int32, max(len(sel), store.BatchRows))
	}
	gidx := gi.gidx[:len(sel)]
	if t := gi.ints; t != nil {
		v := cols[gi.gcols[0]]
		ints, nulls := v.Ints, v.Nulls.AnySel(sel)
		for k, r := range sel {
			if nulls && v.Nulls.Get(int(r)) {
				if gi.nullG < 0 {
					gi.nullG = gi.add(cols, r)
				}
				gidx[k] = gi.nullG
				continue
			}
			ik := ints[r]
			h := hashUint(uint64(ik))
			if e := t.findInt(ik, h); e >= 0 {
				gidx[k] = t.ents[e].row
			} else {
				g := gi.add(cols, r)
				t.insert(typedKey{h: h, ik: ik}, g)
				gidx[k] = g
			}
		}
		return gidx
	}
	gi.nullable = gi.nullable[:0]
	for _, c := range gi.gcols {
		gi.nullable = append(gi.nullable, cols[c].Nulls.AnySel(sel))
	}
	for k, r := range sel {
		h := hashGroupKey(cols, gi.gcols, gi.nullable, r)
		g := int32(-1)
		for _, cand := range gi.hashed[h] {
			if groupKeyEq(cols, gi.gcols, gi.nullable, r, gi.groups[cand].keys) {
				g = cand
				break
			}
		}
		if g < 0 {
			g = gi.add(cols, r)
			gi.hashed[h] = append(gi.hashed[h], g)
		}
		gidx[k] = g
	}
	return gidx
}

// add materializes row r's keys as a new group and returns its index.
func (gi *groupIndex) add(cols []*store.Vec, r int32) int32 {
	keys := make([]value.Value, len(gi.gcols))
	var sb strings.Builder
	for i, c := range gi.gcols {
		keys[i] = cols[c].Get(int(r))
		sb.WriteString(keys[i].String())
		sb.WriteByte(0)
	}
	gi.groups = append(gi.groups, vgroup{keys: keys, sortKey: sb.String()})
	return int32(len(gi.groups) - 1)
}

// canonFloatBits normalizes a float group key for hashing/equality: all
// NaNs collapse (their rendered keys, which order the output, are one)
// while +0 and -0 stay distinct (they render "0" and "-0").
func canonFloatBits(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	return h
}

// hashGroupKey hashes the typed group-key columns of one row; nullable[i]
// says whether key column i's null words hold a null in this batch.
func hashGroupKey(cols []*store.Vec, gcols []int, nullable []bool, r int32) uint64 {
	h := uint64(fnvOffset)
	for i, c := range gcols {
		v := cols[c]
		if nullable[i] && v.Nulls.Get(int(r)) {
			h = mix(h, 0xa5a5a5a5)
			continue
		}
		switch v.Kind {
		case value.Int:
			h = mix(h, 1)
			h = mix(h, uint64(v.Ints[r]))
		case value.Float:
			h = mix(h, 2)
			h = mix(h, canonFloatBits(v.Floats[r]))
		case value.String:
			h = mix(h, 3)
			s := v.Strs[r]
			for i := 0; i < len(s); i++ {
				h = mix(h, uint64(s[i]))
			}
		case value.Bool:
			h = mix(h, 4)
			if v.Bools[r] {
				h = mix(h, 1)
			} else {
				h = mix(h, 0)
			}
		default: // a boxed key groups by its rendering
			h = mix(h, 5)
			s := v.Boxed[r].String()
			for i := 0; i < len(s); i++ {
				h = mix(h, uint64(s[i]))
			}
		}
	}
	return h
}

// groupKeyEq compares one row's typed key columns against a group's
// materialized keys; nullable is hashGroupKey's.
func groupKeyEq(cols []*store.Vec, gcols []int, nullable []bool, r int32, keys []value.Value) bool {
	for i, c := range gcols {
		v := cols[c]
		k := keys[i]
		if nullable[i] && v.Nulls.Get(int(r)) {
			if k.Kind != value.Null {
				return false
			}
			continue
		}
		if k.Kind == value.Null {
			return false
		}
		switch v.Kind {
		case value.Int:
			if k.I != v.Ints[r] {
				return false
			}
		case value.Float:
			if canonFloatBits(k.F) != canonFloatBits(v.Floats[r]) {
				return false
			}
		case value.String:
			if k.S != v.Strs[r] {
				return false
			}
		case value.Bool:
			if k.B != v.Bools[r] {
				return false
			}
		default:
			if k.String() != v.Boxed[r].String() {
				return false
			}
		}
	}
	return true
}
