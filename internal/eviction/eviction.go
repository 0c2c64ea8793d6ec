// Package eviction implements the cache replacement policies evaluated in
// the paper (§5.1, §6.3): ReCache's Greedy-Dual variant (Algorithm 1) and
// the seven comparators of Figure 14 — LRU, LFU, Proteus' JSON-over-CSV
// LRU, a Vectorwise-style cost-based recycler, a MonetDB-style recycler
// with bounded weights, and the two offline oracles (Belady farthest-first
// and an Irani-style log-optimal approximation for multi-size items).
//
// Policies are decoupled from cache internals: the manager hands each
// eviction decision a fresh snapshot of per-entry accounting (Item), so the
// benefit metric is recomputed from its current components every time — the
// paper found freezing it costs up to 6% of execution time.
//
// Concurrency contract: policies keep no locks of their own. The cache
// manager serializes every Policy method call (OnInsert, OnAccess,
// OnRemove, Victims) under its lock, so implementations may freely mutate
// internal state (e.g. Greedy-Dual's L(p) table) without synchronization —
// and, conversely, must never be called from outside the manager while
// concurrent queries run.
package eviction

import (
	"math"
	"sort"
)

// Item is the accounting snapshot of one cache entry at decision time.
// Fields mirror Figure 8 of the paper.
type Item struct {
	ID         uint64
	Size       int64 // B: bytes
	Reuses     int64 // n: times the cached operator was reused
	OpNanos    int64 // t: operator execution time (read+parse+select)
	CacheNanos int64 // c: time to cache the operator's results
	ScanNanos  int64 // s: time to scan the in-memory cache on reuse
	LookupNs   int64 // l: time to find a matching operator cache
	LastAccess int64 // logical clock of the most recent access
	Freq       int64 // total accesses (insert + reuses)
	FromJSON   bool  // origin format (for Proteus' heuristic)
	NextUse    int64 // oracle: logical time of next access (offline policies);
	// math.MaxInt64 when never reused again
}

// Benefit computes the paper's benefit metric
// b(p) = n·(t + c − s − l) / log2(B), clamped at zero.
func (it Item) Benefit() float64 {
	saved := float64(it.OpNanos + it.CacheNanos - it.ScanNanos - it.LookupNs)
	if saved < 0 {
		saved = 0
	}
	n := float64(it.Reuses)
	if n < 1 {
		n = 1 // an entry not yet reused still has reconstruction value
	}
	den := math.Log2(float64(it.Size))
	if den < 1 {
		den = 1
	}
	return n * saved / den
}

// Policy decides which entries to evict. Implementations may keep state
// keyed by entry ID (Greedy-Dual's L(p)); OnInsert/OnAccess/OnRemove keep
// that state in sync with the cache. Implementations need no internal
// locking: the cache manager invokes every method under its own lock.
type Policy interface {
	Name() string
	OnInsert(id uint64)
	OnAccess(id uint64)
	OnRemove(id uint64)
	// Victims returns entry IDs to evict, in order, whose sizes sum to at
	// least need bytes (or every item if the cache is smaller than need).
	Victims(items []Item, need int64) []uint64
}

// TieredPolicy is an optional extension for caches with a disk tier below
// RAM. Demotion moves an entry's accounting from the RAM tier to the disk
// tier, where it stays until it is removed: a disk hit reads the entry
// where it is, and OnAccess records it in whichever tier holds the entry.
// DiskVictims picks entries to discard *for real* from the disk tier. Disk
// items are priced by reload cost: the manager fills Item.ScanNanos with
// the measured (or estimated) cost of reading the entry from disk, so the
// benefit metric b(p) = n·(t+c−s−l)/log2(B) naturally becomes "what a disk
// hit still saves over re-scanning raw data, per byte of disk budget".
//
// Policies that do not implement TieredPolicy still work with a tiered
// cache: the manager falls back to Victims for the disk tier and treats
// demotion as removal (all comparator policies here are stateless, so that
// fallback is exact).
type TieredPolicy interface {
	Policy
	// OnDemote records an entry moving RAM → disk.
	OnDemote(id uint64)
	// OnDiskRemove records an entry discarded from the disk tier.
	OnDiskRemove(id uint64)
	// DiskVictims returns disk-tier entry IDs to discard, in order, whose
	// sizes sum to at least need bytes.
	DiskVictims(items []Item, need int64) []uint64
}

// statelessPolicy provides no-op bookkeeping.
type statelessPolicy struct{}

func (statelessPolicy) OnInsert(uint64) {}
func (statelessPolicy) OnAccess(uint64) {}
func (statelessPolicy) OnRemove(uint64) {}

// takeUntil pops items in the given order until need is covered.
func takeUntil(items []Item, need int64) []uint64 {
	var out []uint64
	for _, it := range items {
		if need <= 0 {
			break
		}
		out = append(out, it.ID)
		need -= it.Size
	}
	return out
}

// LRU evicts the least recently used entries first.
type LRU struct{ statelessPolicy }

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Victims implements Policy.
func (LRU) Victims(items []Item, need int64) []uint64 {
	s := append([]Item(nil), items...)
	sort.Slice(s, func(i, j int) bool { return s[i].LastAccess < s[j].LastAccess })
	return takeUntil(s, need)
}

// LFU evicts the least frequently used entries first (ties: least recent).
type LFU struct{ statelessPolicy }

// Name implements Policy.
func (LFU) Name() string { return "lfu" }

// Victims implements Policy.
func (LFU) Victims(items []Item, need int64) []uint64 {
	s := append([]Item(nil), items...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Freq != s[j].Freq {
			return s[i].Freq < s[j].Freq
		}
		return s[i].LastAccess < s[j].LastAccess
	})
	return takeUntil(s, need)
}

// ProteusLRU is the policy of the Proteus engine: LRU, with the static
// assumption that JSON-derived caches are always costlier than CSV-derived
// ones — so CSV items are evicted first regardless of recency.
type ProteusLRU struct{ statelessPolicy }

// Name implements Policy.
func (ProteusLRU) Name() string { return "lru-json-over-csv" }

// Victims implements Policy.
func (ProteusLRU) Victims(items []Item, need int64) []uint64 {
	s := append([]Item(nil), items...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].FromJSON != s[j].FromJSON {
			return !s[i].FromJSON // CSV first
		}
		return s[i].LastAccess < s[j].LastAccess
	})
	return takeUntil(s, need)
}

// Vectorwise is a cost-based recycler in the spirit of Nagel et al. [37]:
// entries are scored by (frequency × reconstruction cost) per byte, with no
// recency ageing — the weakness relative to Greedy-Dual that Figure 14
// exposes.
type Vectorwise struct{ statelessPolicy }

// Name implements Policy.
func (Vectorwise) Name() string { return "cost-vectorwise" }

// Victims implements Policy.
func (Vectorwise) Victims(items []Item, need int64) []uint64 {
	s := append([]Item(nil), items...)
	score := func(it Item) float64 {
		return float64(it.Freq) * float64(it.OpNanos+it.CacheNanos) / float64(it.Size+1)
	}
	sort.Slice(s, func(i, j int) bool { return score(s[i]) < score(s[j]) })
	return takeUntil(s, need)
}

// MonetDB is a recycler in the spirit of Ivanova et al. [26]: benefit from
// frequency and weight only, with an upper bound on each component so one
// pathological measurement cannot dominate — the bounded worst case the
// paper credits for its competitiveness.
type MonetDB struct{ statelessPolicy }

// Name implements Policy.
func (MonetDB) Name() string { return "cost-monetdb" }

// Victims implements Policy.
func (MonetDB) Victims(items []Item, need int64) []uint64 {
	s := append([]Item(nil), items...)
	// Bound weights at 4× the median reconstruction cost.
	costs := make([]float64, len(s))
	for i, it := range s {
		costs[i] = float64(it.OpNanos + it.CacheNanos)
	}
	sort.Float64s(costs)
	cap := math.Inf(1)
	if len(costs) > 0 {
		cap = 4 * costs[len(costs)/2]
	}
	score := func(it Item) float64 {
		f := float64(it.Freq)
		if f > 8 {
			f = 8
		}
		w := float64(it.OpNanos + it.CacheNanos)
		if w > cap {
			w = cap
		}
		return f * w / float64(it.Size+1)
	}
	sort.Slice(s, func(i, j int) bool { return score(s[i]) < score(s[j]) })
	return takeUntil(s, need)
}

// FarthestFirst is Belady's offline oracle: evict the entry whose next use
// lies farthest in the future. Provably optimal for uniform-cost items; the
// paper shows it is not optimal once costs vary.
type FarthestFirst struct{ statelessPolicy }

// Name implements Policy.
func (FarthestFirst) Name() string { return "offline-farthest-first" }

// Victims implements Policy.
func (FarthestFirst) Victims(items []Item, need int64) []uint64 {
	s := append([]Item(nil), items...)
	sort.Slice(s, func(i, j int) bool { return s[i].NextUse > s[j].NextUse })
	return takeUntil(s, need)
}

// LogOptimal approximates Irani's offline algorithm for multi-size weighted
// caching [24]: items are partitioned into log₂(size) classes; each round
// considers the farthest-next-use item of every class and evicts the one
// with the lowest reconstruction cost per byte. This follows Irani's
// size-class decomposition, which yields an O(log k) approximation of the
// (NP-complete) optimum.
type LogOptimal struct{ statelessPolicy }

// Name implements Policy.
func (LogOptimal) Name() string { return "offline-log-optimal" }

// Victims implements Policy.
func (LogOptimal) Victims(items []Item, need int64) []uint64 {
	remaining := append([]Item(nil), items...)
	var out []uint64
	for need > 0 && len(remaining) > 0 {
		// Farthest next use per size class.
		classBest := map[int]int{} // class → index into remaining
		for i, it := range remaining {
			cls := sizeClass(it.Size)
			if j, ok := classBest[cls]; !ok || it.NextUse > remaining[j].NextUse {
				classBest[cls] = i
			}
		}
		// Among class representatives, evict cheapest per byte.
		best, bestScore := -1, math.Inf(1)
		for _, i := range classBest {
			it := remaining[i]
			score := float64(it.OpNanos+it.CacheNanos) / float64(it.Size+1)
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		it := remaining[best]
		out = append(out, it.ID)
		need -= it.Size
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}

func sizeClass(size int64) int {
	c := 0
	for size > 1 {
		size >>= 1
		c++
	}
	return c
}

// New returns a policy by name; the names double as the -eviction CLI flag
// values and the Figure 14 series labels.
func New(name string) Policy {
	switch name {
	case "lru":
		return LRU{}
	case "lfu":
		return LFU{}
	case "lru-json-over-csv":
		return ProteusLRU{}
	case "cost-vectorwise":
		return Vectorwise{}
	case "cost-monetdb":
		return MonetDB{}
	case "offline-farthest-first":
		return FarthestFirst{}
	case "offline-log-optimal":
		return LogOptimal{}
	case "greedy-dual", "recache":
		return NewGreedyDual()
	}
	return nil
}

// Names lists all policy names accepted by New.
func Names() []string {
	return []string{"recache", "lru", "lfu", "lru-json-over-csv",
		"cost-vectorwise", "cost-monetdb", "offline-farthest-first", "offline-log-optimal"}
}
