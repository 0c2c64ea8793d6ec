package client

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"recache/internal/shard"
	"recache/internal/wire"
)

// Router fans a fleet of recached shards behind the single-daemon client
// API. Each query is routed to the shard owning its route key (sorted
// tables + canonical predicate — the same rendezvous hash every fleet
// member computes, see internal/shard), so repeated queries always land on
// the shard holding their cache entries; per-shard connections are pooled
// and pipelined exactly like a single Client's. Admin operations
// (registration, ping) broadcast; table stats sum across the fleet, which
// makes fleet-wide raw-parse counts observable to harnesses and monitors.
//
// A Router is safe for concurrent use, and it is where fleet resilience
// lives on the client side:
//
//   - Health: every shard has a circuit breaker fed by in-band error
//     classification (transport failures count, application errors don't)
//     and by a background prober that pings unhealthy shards every
//     PingInterval, re-dialing their pools so a restarted shard comes
//     back without restarting the router.
//   - Failover: a request that fails with a retryable error moves down
//     the key's rendezvous ranking — replica shards first (they hold a
//     disk-tier copy of the key's cache entries when replication is on),
//     then any healthy shard (correct but cold: every shard registers
//     every table). Retries back off exponentially with jitter under a
//     total RetryBudget.
//   - Degradation: when the budget is spent, Exec hands the query to the
//     Fallback (typically local raw execution) instead of surfacing a
//     retryable fault to the caller.
//   - Topology: the prober refreshes the fleet map from a live shard, so
//     a gracefully drained member disappears from routing without a
//     restart.
type Router struct {
	opts RouterOptions

	// mu guards the topology: the map and the shard-id → client table. The
	// table is copy-on-write — pick reads a snapshot of it outside mu — so
	// it is replaced, never assigned into.
	mu  sync.RWMutex
	m   *shard.Map
	cls map[int]*Client

	// hmu guards the breaker table (separate from mu so health updates
	// never contend with topology reads).
	hmu sync.Mutex
	hs  map[int]*health

	// refreshMu serializes topology refreshes.
	refreshMu sync.Mutex

	rngMu sync.Mutex
	rng   *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	retries      atomic.Int64
	failovers    atomic.Int64
	fallbacks    atomic.Int64
	breakerOpens atomic.Int64
	refreshes    atomic.Int64
}

// RouterOptions configures a Router beyond the per-connection Options.
// The zero value enables resilience with sane defaults; see the fields
// for the knobs.
type RouterOptions struct {
	Options

	// PingInterval is the health-probe cadence: unhealthy shards are
	// pinged (and their pools re-dialed) this often, and the fleet
	// topology is re-checked once per cycle. It doubles as the breaker's
	// half-open delay — an open shard admits one trial request per
	// interval even between probes. Default 500ms; negative disables the
	// background prober (breakers still open and half-open in-band).
	PingInterval time.Duration
	// FailureThreshold is how many consecutive retryable failures open a
	// shard's breaker (default 3).
	FailureThreshold int
	// RetryBudget bounds the total time one request spends retrying
	// across shards before giving up (default 2s; negative disables
	// retries — one attempt per candidate, no backoff waits).
	RetryBudget time.Duration
	// Fallback, when set, is the degradation floor for Exec: after the
	// retry budget is spent on retryable faults, the query is handed
	// here (typically a local engine running the raw scan) instead of
	// returning an error. Application errors never reach the fallback.
	Fallback func(sql string) (rows int64, wall time.Duration, err error)
	// Seed seeds the backoff jitter (0 gets a fixed seed; determinism is
	// a feature in tests).
	Seed int64
}

// retryBaseDelay and retryMaxDelay shape the exponential backoff a request
// waits when every candidate shard is unavailable, jittered to keep
// concurrent callers from thundering in phase.
const (
	retryBaseDelay = 10 * time.Millisecond
	retryMaxDelay  = 200 * time.Millisecond
)

func (o RouterOptions) normalized() RouterOptions {
	if o.PingInterval == 0 {
		o.PingInterval = 500 * time.Millisecond
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 2 * time.Second
	}
	return o
}

// RouterStats snapshots the router's resilience counters.
type RouterStats struct {
	// Retries counts backoff waits taken because no candidate shard was
	// available; Failovers requests served by a shard other than the
	// key's owner; Fallbacks queries degraded to the local fallback;
	// BreakerOpens breaker closed→open transitions; Refreshes topology
	// rebuilds; OpenShards the shards currently not accepting requests.
	Retries      int64
	Failovers    int64
	Fallbacks    int64
	BreakerOpens int64
	Refreshes    int64
	OpenShards   int
}

// DialRouter connects to every shard in addrs; shard ids are list
// positions, so the list must match the fleet's -fleet flag order.
func DialRouter(addrs []string, opts RouterOptions) (*Router, error) {
	infos := make([]shard.Info, len(addrs))
	for i, a := range addrs {
		infos[i] = shard.Info{ID: i, Addr: a}
	}
	return dialShards(infos, opts)
}

// DialFleet discovers the topology from one seed shard (the fleet wire op)
// and connects to every member.
func DialFleet(seed string, opts RouterOptions) (*Router, error) {
	scl, err := Dial(seed, opts.Options)
	if err != nil {
		return nil, err
	}
	f, err := scl.Fleet()
	scl.Close()
	if err != nil {
		return nil, err
	}
	return dialShards(fleetInfos(f), opts)
}

// fleetInfos converts a fleet wire answer to shard infos.
func fleetInfos(f *wire.Fleet) []shard.Info {
	infos := make([]shard.Info, len(f.Shards))
	for i, s := range f.Shards {
		infos[i] = shard.Info{ID: int(s.ID), Addr: s.Addr}
	}
	return infos
}

func dialShards(infos []shard.Info, opts RouterOptions) (*Router, error) {
	m, err := shard.NewMap(infos)
	if err != nil {
		return nil, err
	}
	opts = opts.normalized()
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	r := &Router{
		opts: opts,
		m:    m,
		cls:  make(map[int]*Client, m.Len()),
		hs:   make(map[int]*health, m.Len()),
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
	}
	for _, s := range m.Shards() {
		cl, err := Dial(s.Addr, opts.Options)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("client: shard %d: %w", s.ID, err)
		}
		r.cls[s.ID] = cl
	}
	if opts.PingInterval > 0 {
		r.wg.Add(1)
		go r.pingLoop()
	}
	return r, nil
}

// Close stops the prober and tears down every shard connection.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	r.mu.Lock()
	cls := r.cls
	r.cls = make(map[int]*Client)
	r.mu.Unlock()
	for _, cl := range cls {
		cl.Close()
	}
	return nil
}

// Map returns the current topology snapshot.
func (r *Router) Map() *shard.Map {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m
}

// Shards returns the fleet size.
func (r *Router) Shards() int { return r.Map().Len() }

// ShardFor returns the id of the shard that owns sql's route key.
func (r *Router) ShardFor(sql string) int {
	return r.Map().Owner(shard.RouteKey(sql)).ID
}

// Stats snapshots the resilience counters.
func (r *Router) RouterStats() RouterStats {
	st := RouterStats{
		Retries:      r.retries.Load(),
		Failovers:    r.failovers.Load(),
		Fallbacks:    r.fallbacks.Load(),
		BreakerOpens: r.breakerOpens.Load(),
		Refreshes:    r.refreshes.Load(),
	}
	r.hmu.Lock()
	for _, h := range r.hs {
		if !h.isClosed() {
			st.OpenShards++
		}
	}
	r.hmu.Unlock()
	return st
}

// Breaker states. closed = healthy; open = failing, requests skip the
// shard; half-open = one trial in flight, its outcome decides.
const (
	stClosed = iota
	stOpen
	stHalfOpen
)

// health is one shard's circuit breaker. In-band failures open it at
// FailureThreshold; it half-opens after PingInterval (one trial request)
// and fully closes on any success — in-band or prober.
type health struct {
	mu       sync.Mutex
	st       int
	fails    int
	openedAt time.Time
	probing  bool
}

// allow reports whether a request may target the shard, transitioning
// open → half-open when the shard has been open for probeAfter (the
// caller's request is the trial).
func (h *health) allow(now time.Time, probeAfter time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.st {
	case stClosed:
		return true
	case stOpen:
		if now.Sub(h.openedAt) >= probeAfter {
			h.st = stHalfOpen
			return true
		}
		return false
	default: // half-open: one trial at a time
		return false
	}
}

func (h *health) onSuccess() {
	h.mu.Lock()
	h.st = stClosed
	h.fails = 0
	h.mu.Unlock()
}

// onFailure records a retryable failure; it reports whether this one
// opened the breaker (closed/half-open → open).
func (h *health) onFailure(threshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails++
	if h.st == stHalfOpen || h.fails >= threshold {
		opened := h.st != stOpen
		h.st = stOpen
		h.openedAt = time.Now()
		return opened
	}
	return false
}

// reopen re-arms an open breaker after a failed probe, restarting the
// half-open delay.
func (h *health) reopen() {
	h.mu.Lock()
	h.st = stOpen
	h.openedAt = time.Now()
	h.mu.Unlock()
}

func (h *health) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st == stClosed
}

func (h *health) beginProbe() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.probing {
		return false
	}
	h.probing = true
	return true
}

func (h *health) endProbe() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// health returns the breaker for a shard id, creating it on first use.
func (r *Router) health(id int) *health {
	r.hmu.Lock()
	defer r.hmu.Unlock()
	h := r.hs[id]
	if h == nil {
		h = &health{}
		r.hs[id] = h
	}
	return h
}

// retryable classifies an error for failover: application errors
// (ServerError — the daemon processed and rejected the request) are not,
// everything else (lost connections, timeouts, closed pools, protocol
// desync) is a transport fault another shard may not share.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	return !errors.As(err, &se)
}

// pick chooses the next candidate for key: the key's replica set in
// rendezvous order first, then any other shard in rank order — always
// breaker-allowed and not already tried by this request.
func (r *Router) pick(key string, tried map[int]bool) (*Client, int, bool) {
	r.mu.RLock()
	m := r.m
	cls := r.cls
	r.mu.RUnlock()
	now := time.Now()
	rank := m.Rank(key)
	replicas := shard.ReplicaFactor
	if replicas > len(rank) {
		replicas = len(rank)
	}
	for pass := 0; pass < 2; pass++ {
		cands := rank[:replicas]
		if pass == 1 {
			cands = rank[replicas:]
		}
		for _, s := range cands {
			if tried[s.ID] {
				continue
			}
			cl := cls[s.ID]
			if cl == nil {
				continue
			}
			if r.health(s.ID).allow(now, r.opts.PingInterval) {
				return cl, s.ID, true
			}
		}
	}
	return nil, 0, false
}

// errNoShard is the terminal error when every shard is unavailable for
// the whole retry budget.
var errNoShard = errors.New("client: no shard available")

// do runs op against sql's owning shard with failover and bounded
// retries: a retryable failure moves to the next candidate immediately,
// backoff is only paid when every candidate is exhausted, and the whole
// request observes the retry budget.
func (r *Router) do(sql string, op func(cl *Client) error) error {
	key := shard.RouteKey(sql)
	primary := r.Map().Owner(key).ID
	var deadline time.Time
	if r.opts.RetryBudget > 0 {
		deadline = time.Now().Add(r.opts.RetryBudget)
	}
	delay := retryBaseDelay
	tried := make(map[int]bool)
	var lastErr error
	for {
		cl, id, ok := r.pick(key, tried)
		if ok {
			err := op(cl)
			if err == nil {
				r.health(id).onSuccess()
				if id != primary {
					r.failovers.Add(1)
				}
				return nil
			}
			if !retryable(err) {
				r.health(id).onSuccess() // the shard answered; it is healthy
				return err
			}
			lastErr = err
			if r.health(id).onFailure(r.opts.FailureThreshold) {
				r.breakerOpens.Add(1)
			}
			tried[id] = true
			if !deadline.IsZero() && time.Now().After(deadline) {
				return lastErr
			}
			continue // fail over to the next candidate without waiting
		}
		// Every candidate tried or breaker-open: reset the per-request
		// exclusions so half-open trials get a chance, and back off.
		tried = make(map[int]bool)
		if lastErr == nil {
			lastErr = errNoShard
		}
		if deadline.IsZero() || !time.Now().Add(delay).Before(deadline) {
			return lastErr
		}
		r.retries.Add(1)
		time.Sleep(r.jitter(delay))
		delay *= 2
		if delay > retryMaxDelay {
			delay = retryMaxDelay
		}
	}
}

// jitter spreads a backoff delay over [d/2, d) so concurrent retriers
// desynchronize.
func (r *Router) jitter(d time.Duration) time.Duration {
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	r.rngMu.Lock()
	n := r.rng.Int63n(half)
	r.rngMu.Unlock()
	return time.Duration(half + n)
}

// Query executes sql with failover and decodes the result rows.
func (r *Router) Query(sql string) (*Result, error) {
	var res *Result
	err := r.do(sql, func(cl *Client) error {
		var e error
		res, e = cl.Query(sql)
		return e
	})
	return res, err
}

// Exec runs sql without materializing rows. It is the resilient serving
// path: when the fleet cannot serve a retryable fault within the retry
// budget, the configured Fallback (local raw execution) answers instead
// of the caller seeing the fault.
func (r *Router) Exec(sql string) (rows int64, wall time.Duration, err error) {
	err = r.do(sql, func(cl *Client) error {
		var e error
		rows, wall, e = cl.Exec(sql)
		return e
	})
	if err != nil && retryable(err) && r.opts.Fallback != nil {
		r.fallbacks.Add(1)
		return r.opts.Fallback(sql)
	}
	return rows, wall, err
}

// Explain returns the rewritten plan from sql's serving shard — under
// failover, the shard that would actually execute it right now.
func (r *Router) Explain(sql string) (string, error) {
	var text string
	err := r.do(sql, func(cl *Client) error {
		var e error
		text, e = cl.Explain(sql)
		return e
	})
	return text, err
}

// clients snapshots the shard-id → client table in fleet order.
func (r *Router) clients() []shardClient {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]shardClient, 0, len(r.cls))
	for _, s := range r.m.Shards() {
		if cl := r.cls[s.ID]; cl != nil {
			out = append(out, shardClient{s, cl})
		}
	}
	return out
}

type shardClient struct {
	info shard.Info
	cl   *Client
}

// Ping round-trips every shard; the first failure wins.
func (r *Router) Ping() error {
	for _, sc := range r.clients() {
		if err := sc.cl.Ping(); err != nil {
			return fmt.Errorf("client: shard %d: %w", sc.info.ID, err)
		}
	}
	return nil
}

// RegisterCSV registers the table on every shard: any shard can own any
// predicate over it, so the whole fleet must know the file.
func (r *Router) RegisterCSV(name, path, schema string, delim byte) error {
	return r.broadcast(func(cl *Client) error { return cl.RegisterCSV(name, path, schema, delim) })
}

// RegisterJSON registers the table on every shard.
func (r *Router) RegisterJSON(name, path, schema string) error {
	return r.broadcast(func(cl *Client) error { return cl.RegisterJSON(name, path, schema) })
}

func (r *Router) broadcast(op func(*Client) error) error {
	for _, sc := range r.clients() {
		if err := op(sc.cl); err != nil {
			return fmt.Errorf("client: shard %d: %w", sc.info.ID, err)
		}
	}
	return nil
}

// Tables lists the registered tables from the first reachable shard
// (registration broadcasts, so every member holds the same set).
func (r *Router) Tables() ([]string, error) {
	var lastErr error
	for _, sc := range r.clients() {
		tables, err := sc.cl.Tables()
		if err == nil {
			return tables, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("client: empty fleet")
	}
	return nil, lastErr
}

// StatsAll snapshots every shard's cache and serving counters, in fleet
// order.
func (r *Router) StatsAll() ([]*wire.Stats, error) {
	scs := r.clients()
	out := make([]*wire.Stats, len(scs))
	for i, sc := range scs {
		s, err := sc.cl.Stats()
		if err != nil {
			return nil, fmt.Errorf("client: shard %d: %w", sc.info.ID, err)
		}
		out[i] = s
	}
	return out, nil
}

// TableStats sums one table's raw-scan counters across the fleet — the
// fleet-wide cost of cold misses on that table.
func (r *Router) TableStats(name string) (*wire.TableStats, error) {
	sum := &wire.TableStats{}
	for _, sc := range r.clients() {
		ts, err := sc.cl.TableStats(name)
		if err != nil {
			return nil, fmt.Errorf("client: shard %d: %w", sc.info.ID, err)
		}
		sum.RawScans += ts.RawScans
		sum.PushScans += ts.PushScans
		sum.SkippedEarly += ts.SkippedEarly
	}
	return sum, nil
}

// pingLoop is the background prober: every PingInterval it pings each
// unhealthy shard (re-dialing its pool if the shard restarted) and
// re-checks the fleet topology from one healthy member, so drained
// members leave the routing table without a router restart.
func (r *Router) pingLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeOnce()
		}
	}
}

func (r *Router) probeOnce() {
	r.mu.RLock()
	snap := make([]shardClient, 0, len(r.cls))
	for _, s := range r.m.Shards() {
		if cl := r.cls[s.ID]; cl != nil {
			snap = append(snap, shardClient{s, cl})
		}
	}
	r.mu.RUnlock()
	var live *Client
	for _, sc := range snap {
		h := r.health(sc.info.ID)
		if h.isClosed() {
			if live == nil {
				live = sc.cl
			}
			continue
		}
		if !h.beginProbe() {
			continue
		}
		go r.probeShard(sc, h)
	}
	if live != nil {
		r.refreshFrom(live)
	}
}

// probeShard health-checks one unhealthy shard. A dead pool is re-dialed:
// the shard process may have restarted, and a fresh pool is the only way
// back for its connections.
func (r *Router) probeShard(sc shardClient, h *health) {
	defer h.endProbe()
	if sc.cl.Ping() == nil {
		h.onSuccess()
		return
	}
	cl, err := Dial(sc.info.Addr, r.opts.Options)
	if err != nil {
		h.reopen()
		return
	}
	if cl.Ping() != nil {
		cl.Close()
		h.reopen()
		return
	}
	r.mu.Lock()
	old := r.cls[sc.info.ID]
	if old == sc.cl {
		next := maps.Clone(r.cls)
		next[sc.info.ID] = cl
		r.cls = next
	}
	r.mu.Unlock()
	if old == sc.cl {
		old.Close()
		h.onSuccess()
	} else {
		cl.Close() // another probe already swapped the pool
	}
}

// Refresh re-fetches the fleet topology from the first healthy shard and
// rebuilds the routing table if membership changed. The prober calls it
// every cycle; it is also safe to call directly.
func (r *Router) Refresh() error {
	for _, sc := range r.clients() {
		if !r.health(sc.info.ID).isClosed() {
			continue
		}
		r.refreshFrom(sc.cl)
		return nil
	}
	return errNoShard
}

// refreshFrom rebuilds the routing table from one member's view of the
// fleet when membership changed: clients for surviving shards are kept,
// newcomers dialed, departed members' clients closed.
func (r *Router) refreshFrom(cl *Client) {
	f, err := cl.Fleet()
	if err != nil {
		return // standalone daemon or transient failure: keep routing as is
	}
	infos := fleetInfos(f)
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	if sameTopology(r.Map(), infos) {
		return
	}
	nm, err := shard.NewMap(infos)
	if err != nil {
		return
	}
	r.mu.RLock()
	old := make(map[int]*Client, len(r.cls))
	for id, c := range r.cls {
		old[id] = c
	}
	r.mu.RUnlock()
	next := make(map[int]*Client, len(infos))
	var dialed []*Client
	for _, s := range infos {
		if c, ok := old[s.ID]; ok {
			next[s.ID] = c
			continue
		}
		c, err := Dial(s.Addr, r.opts.Options)
		if err != nil {
			for _, d := range dialed {
				d.Close()
			}
			return // partial topology: retry next cycle
		}
		dialed = append(dialed, c)
		next[s.ID] = c
	}
	r.mu.Lock()
	prev := r.cls
	r.m = nm
	r.cls = next
	r.mu.Unlock()
	for id, c := range prev {
		if _, keep := next[id]; !keep {
			c.Close()
		}
	}
	r.refreshes.Add(1)
}

func sameTopology(m *shard.Map, infos []shard.Info) bool {
	shards := m.Shards()
	if len(shards) != len(infos) {
		return false
	}
	byID := make(map[int]string, len(shards))
	for _, s := range shards {
		byID[s.ID] = s.Addr
	}
	for _, s := range infos {
		if addr, ok := byID[s.ID]; !ok || addr != s.Addr {
			return false
		}
	}
	return true
}
