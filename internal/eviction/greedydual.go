package eviction

import (
	"sort"
)

// GreedyDual is ReCache's cost-based eviction policy: Algorithm 1 of the
// paper, an instance of the Greedy-Dual family (Young [46]) with the
// benefit metric of Figure 8 and two ReCache-specific refinements:
//
//  1. The benefit metric b(p) is recomputed from its current components at
//     every eviction (the Item snapshot is fresh), so changes in how the
//     engine reads a file — e.g. a positional map appearing — are reflected
//     immediately.
//
//  2. Rather than evicting strictly in ascending H(p) order, the algorithm
//     first collects the prefix of ascending-H items whose total size
//     covers the deficit, then reclaims within that candidate set in
//     descending size order, finishing with the smallest candidate that
//     still covers the remainder. This evicts far fewer items than plain
//     Greedy-Dual while never evicting anything plain Greedy-Dual would
//     have kept (the knapsack heuristic of §5.1).
//
// GreedyDual carries per-entry state (the L(p) table) without internal
// locking; the cache manager serializes all calls under its lock (see the
// package-level concurrency contract).
type GreedyDual struct {
	l     float64            // the global baseline L (RAM tier)
	lp    map[uint64]float64 // L(p) at last insert/access (RAM tier)
	dl    float64            // disk-tier baseline
	dlp   map[uint64]float64 // disk-tier L(p), keyed at demotion
	plain bool               // disable the descending-size heuristic
}

// NewGreedyDual creates the policy with L = 0.
func NewGreedyDual() *GreedyDual {
	return &GreedyDual{lp: make(map[uint64]float64), dlp: make(map[uint64]float64)}
}

// Name implements Policy.
func (g *GreedyDual) Name() string { return "recache-greedy-dual" }

// OnInsert implements Policy: L(p) ← L.
func (g *GreedyDual) OnInsert(id uint64) { g.lp[id] = g.l }

// OnAccess implements Policy: L(p) ← L, against the baseline of the tier
// the entry is in — a disk hit leaves the entry on disk.
func (g *GreedyDual) OnAccess(id uint64) {
	if _, ok := g.dlp[id]; ok {
		g.dlp[id] = g.dl
		return
	}
	g.lp[id] = g.l
}

// OnRemove implements Policy.
func (g *GreedyDual) OnRemove(id uint64) { delete(g.lp, id) }

// OnDemote implements TieredPolicy: the entry leaves the RAM tier and
// enters the disk tier at the current disk baseline, exactly as a fresh
// insert would in single-tier Greedy-Dual.
func (g *GreedyDual) OnDemote(id uint64) {
	delete(g.lp, id)
	g.dlp[id] = g.dl
}

// OnDiskRemove implements TieredPolicy.
func (g *GreedyDual) OnDiskRemove(id uint64) { delete(g.dlp, id) }

// DiskVictims implements TieredPolicy: Algorithm 1 run against the disk
// tier's own baseline and L(p) table. Items arrive priced by reload cost
// (ScanNanos = deserialization nanos), so low-H entries are those whose
// disk hit saves little over re-scanning the raw file.
func (g *GreedyDual) DiskVictims(items []Item, need int64) []uint64 {
	return g.victims(items, need, g.dlp, &g.dl)
}

// L exposes the current baseline (monotonically non-decreasing; tested).
func (g *GreedyDual) L() float64 { return g.l }

// Plain disables the descending-size reclaim heuristic, evicting strictly
// in ascending H(p) order — the baseline the DESIGN.md ablation compares
// Algorithm 1 against.
func (g *GreedyDual) SetPlain(plain bool) { g.plain = plain }

// Victims implements Policy — Algorithm 1 against the RAM tier.
func (g *GreedyDual) Victims(items []Item, need int64) []uint64 {
	return g.victims(items, need, g.lp, &g.l)
}

// victims is Algorithm 1 parameterized by tier state (L(p) table and
// baseline), shared by the RAM and disk tiers.
func (g *GreedyDual) victims(items []Item, need int64, lp map[uint64]float64, l *float64) []uint64 {
	if need <= 0 || len(items) == 0 {
		return nil
	}
	type hitem struct {
		Item
		h float64
	}
	hs := make([]hitem, len(items))
	for i, it := range items {
		hs[i] = hitem{Item: it, h: lp[it.ID] + it.Benefit()}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].h < hs[j].h })

	// Phase 1: pop ascending H until the candidate set covers the deficit,
	// raising the baseline L to the largest H popped.
	diff := need
	var cand []hitem
	for _, it := range hs {
		if diff < 0 {
			break
		}
		diff -= it.Size
		cand = append(cand, it)
		if *l <= it.h {
			*l = it.h
		}
	}
	if g.plain {
		// Plain Greedy-Dual: evict the whole ascending-H prefix.
		out := make([]uint64, len(cand))
		for i, it := range cand {
			out[i] = it.ID
		}
		return out
	}

	// Phase 2: reclaim within the candidates in descending size; after each
	// eviction, if a single candidate can cover what remains, evict the
	// smallest such and stop.
	sort.Slice(cand, func(i, j int) bool { return cand[i].Size > cand[j].Size })
	var out []uint64
	diff = need
	for len(cand) > 0 && diff >= 0 {
		// Largest remaining candidate.
		p := cand[0]
		cand = cand[1:]
		out = append(out, p.ID)
		diff -= p.Size
		if diff < 0 {
			break
		}
		// Smallest candidate with size >= diff finishes the reclaim.
		best := -1
		for i := len(cand) - 1; i >= 0; i-- { // cand sorted desc: scan from small end
			if cand[i].Size >= diff {
				best = i
				break
			}
		}
		if best >= 0 {
			out = append(out, cand[best].ID)
			return out
		}
	}
	return out
}
