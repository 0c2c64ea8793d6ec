// Package shard partitions the cache's (dataset, predicate) key space
// across a fleet of recached processes.
//
// Ownership is rendezvous (highest-random-weight) hashing: every shard
// scores every key with a mixed hash of (key, shard id) and the highest
// score owns the key. Rendezvous beats modulo for a cache fleet because
// removing one shard remaps only the keys that shard owned — every other
// shard keeps its working set warm — and it needs no coordination: any
// party holding the same fleet list (router clients, the shards
// themselves) computes the same owner.
//
// The package also holds the two pieces the fleet shares beyond routing:
// RouteKey, the canonical query→key extraction the router hashes (aligned
// with the cache's (dataset, predicate) entry keys so a query lands on the
// shard that owns its cache entry), and LeaseTable, the short-TTL
// materialization leases backing fleet-wide single-flight (see
// DESIGN.md, "Sharded fleet").
package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"recache/internal/sqlparse"
)

// Info identifies one shard: its position in the fleet list and the
// address it serves on (client.ParseAddr forms).
type Info struct {
	ID   int
	Addr string
}

// Map is an immutable fleet topology. All parties computing ownership must
// hold the same list in the same order.
type Map struct {
	shards []Info
	// seeds caches each shard's id-derived hash seed so Owner pays one key
	// hash plus one mix per shard, no per-call setup.
	seeds []uint64
}

// NewMap builds a topology from the fleet list. IDs must be unique; an
// empty fleet is an error (there is nobody to own anything).
func NewMap(shards []Info) (*Map, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: empty fleet")
	}
	seen := make(map[int]bool, len(shards))
	m := &Map{shards: append([]Info(nil), shards...)}
	for _, s := range m.shards {
		if seen[s.ID] {
			return nil, fmt.Errorf("shard: duplicate shard id %d", s.ID)
		}
		seen[s.ID] = true
		m.seeds = append(m.seeds, mix64(uint64(s.ID)+0x9e3779b97f4a7c15))
	}
	return m, nil
}

// ParseFleet builds a topology from a comma-separated address list; shard
// ids are list positions, so every fleet member must receive the same
// -fleet string.
func ParseFleet(spec string) (*Map, error) {
	var shards []Info
	for i, addr := range strings.Split(spec, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("shard: empty address at position %d in fleet %q", i, spec)
		}
		shards = append(shards, Info{ID: i, Addr: addr})
	}
	return NewMap(shards)
}

// Shards returns the fleet list (shared; callers must not mutate).
func (m *Map) Shards() []Info { return m.shards }

// Len is the fleet size.
func (m *Map) Len() int { return len(m.shards) }

// Owner returns the shard owning key: the highest-random-weight winner.
func (m *Map) Owner(key string) Info {
	kh := hashKey(key)
	best, bestW := 0, uint64(0)
	for i, seed := range m.seeds {
		if w := mix64(kh ^ seed); i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return m.shards[best]
}

// Rank returns every shard ordered by descending weight for key: Rank[0]
// is the owner, Rank[1] the shard that would own it if the owner left, and
// so on — the natural failover order.
func (m *Map) Rank(key string) []Info {
	kh := hashKey(key)
	type scored struct {
		w uint64
		i int
	}
	ws := make([]scored, len(m.seeds))
	for i, seed := range m.seeds {
		ws[i] = scored{mix64(kh ^ seed), i}
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].w > ws[b].w })
	out := make([]Info, len(ws))
	for i, s := range ws {
		out[i] = m.shards[s.i]
	}
	return out
}

// ReplicaFactor is how many shards hold each key, counting the owner: 2
// means one redundant copy on the key's next rendezvous shard. Members push
// replicas to this prefix of the ranking and routers try it first on
// failover, so both sides must read the same constant.
const ReplicaFactor = 2

// Replicas returns the top-k shards by descending weight for key: the
// owner first, then the replica chain. Replicas(key, 2)[1] is the shard
// that adopts the key if the owner dies, so replica placement is derivable
// from the topology alone — no placement table, no coordination. k is
// clamped to the fleet size.
func (m *Map) Replicas(key string, k int) []Info {
	if k <= 0 {
		return nil
	}
	rank := m.Rank(key)
	if k < len(rank) {
		rank = rank[:k]
	}
	return rank
}

// Remove returns a topology without the given shard — the map every
// surviving member converges on when a peer drains out. Removing an
// unknown id or the last shard is an error.
func (m *Map) Remove(id int) (*Map, error) {
	var rest []Info
	for _, s := range m.shards {
		if s.ID != id {
			rest = append(rest, s)
		}
	}
	if len(rest) == len(m.shards) {
		return nil, fmt.Errorf("shard: remove: unknown shard id %d", id)
	}
	return NewMap(rest)
}

// hashKey is FNV-1a 64 — cheap, allocation-free, and good enough once
// mix64 finalizes the per-shard combination.
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: full-avalanche mixing so the
// per-shard weights of one key are independent.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Key composes the fleet-wide identity of one cache entry. It mirrors the
// cache manager's entry key (dataset + "|" + canonical predicate) so lease
// keys and route keys hash consistently everywhere.
func Key(dataset, predCanon string) string { return dataset + "|" + predCanon }

// RouteKey extracts the ownership key of a query: its sorted table list
// plus the canonical form of its WHERE clause. Queries differing only in
// whitespace, projection, or grouping share a key, so they land on the
// shard holding their (dataset, predicate) cache entries. Unparseable SQL
// falls back to the normalized text — still deterministic across routers,
// and the owning shard answers with whatever error the engine raises.
func RouteKey(sql string) string {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return strings.Join(strings.Fields(strings.ToLower(sql)), " ")
	}
	tables := append([]string(nil), q.Tables...)
	for _, j := range q.Joins {
		tables = append(tables, j.Table)
	}
	sort.Strings(tables)
	canon := "true"
	if q.Where != nil {
		canon = q.Where.Canonical()
	}
	return Key(strings.Join(tables, ","), canon)
}

// LeaseTable grants short-TTL materialization leases: the owning shard's
// half of fleet-wide single-flight. At most one holder may hold a key at a
// time; a lease not released by its holder simply expires, so a crashed
// holder delays the next materialization by at most the TTL — it never
// wedges the fleet.
type LeaseTable struct {
	mu     sync.Mutex
	leases map[string]lease
	now    func() time.Time // injectable clock for tests
}

type lease struct {
	holder  uint64
	expires time.Time
}

// NewLeaseTable creates an empty table.
func NewLeaseTable() *LeaseTable {
	return &LeaseTable{leases: make(map[string]lease), now: time.Now}
}

// DefaultTTL bounds how long a dead holder can block re-materialization.
// Acquire callers passing 0 get it; MaxTTL caps what remote callers may
// request so a buggy client cannot park a key for hours.
const (
	DefaultTTL = 3 * time.Second
	MaxTTL     = 30 * time.Second
)

// Acquire grants key to holder for ttl if it is free, expired, or already
// held by the same holder (renewal). It reports whether the grant
// succeeded and when the granted or blocking lease expires.
func (t *LeaseTable) Acquire(key string, holder uint64, ttl time.Duration) (granted bool, expires time.Time) {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if ttl > MaxTTL {
		ttl = MaxTTL
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.leases[key]; ok && l.holder != holder && now.Before(l.expires) {
		return false, l.expires
	}
	l := lease{holder: holder, expires: now.Add(ttl)}
	t.leases[key] = l
	return true, l.expires
}

// Release drops key's lease if holder still holds it; releasing an
// expired-and-reacquired key is a no-op, so a slow holder cannot revoke
// its successor.
func (t *LeaseTable) Release(key string, holder uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.leases[key]; ok && l.holder == holder {
		delete(t.leases, key)
		return true
	}
	return false
}

// Len counts live (unexpired) leases, compacting expired ones.
func (t *LeaseTable) Len() int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, l := range t.leases {
		if !now.Before(l.expires) {
			delete(t.leases, k)
		}
	}
	return len(t.leases)
}
