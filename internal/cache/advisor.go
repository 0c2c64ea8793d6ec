package cache

import (
	"time"

	"recache/internal/store"
)

// The layout advisor (§4.2). Every eager payload is the Parquet form. A
// per-record scan reads it as stored, which is Parquet's fast path; a
// flattening scan of nested data expands it when its cursor opens, each
// record leaf gathered once per flattened row: the cursor's C_i. The
// flattened view — the columnar layout store.Flatten derives from the form
// — needs no expansion, and the advisor decides when it is worth keeping as
// a memo on the entry (lifecycle.go).
//
// The rule is eqs. 1–3 restricted to flattening reads of the form. Such a
// read needs every flattened row (r_i = R), so eq. 2's columnar cost is its
// data cost D_i, costP − costR is ΣC_i over the window, and eq. 3's T is
// max_i (D_i + C_i). The view is derived once ΣC_i > T, with T raised to the
// measured time of the last derivation: eq. 3 extrapolates T from scan
// costs, which can underestimate the real derivation, and once one has been
// measured the decision uses the larger — the reactive principle the paper
// applies to the benefit metric (§5.1). A per-record scan never feeds the
// window, because a view never slows it down.

// advisorState is one entry's window: the flattening reads of its Parquet
// form since the last derivation (the paper's unbounded, switch-reset
// window, which damps thrashing on rapidly changing workloads).
type advisorState struct {
	compute    int64 // ΣC_i
	peak       int64 // max_i (D_i + C_i): eq. 3's T
	lastDerive int64 // measured time of the last derivation
	viewBytes  int64 // what the last derived view owned: the room the next one needs
}

// observe adds one flattening read of the form to the window.
func (a *advisorState) observe(data, compute int64) {
	a.compute += compute
	a.peak = max(a.peak, data+compute)
}

// due reports whether the window's expansions cost more than a derivation
// would: eq. 1's costP > costR + T.
func (a *advisorState) due() bool { return a.compute > max(a.peak, a.lastDerive) }

// derived moves the window forward after a derivation that took nanos and
// made a view owning own bytes, as §4.2 prescribes ("it moves forward the
// window for further query tracking").
func (a *advisorState) derived(nanos, own int64) {
	*a = advisorState{lastDerive: nanos, viewBytes: own}
}

// RecordScan feeds one cache-scan observation into the entry's accounting.
// A flattening read that expanded the entry's Parquet form (st.ComputeNanos
// > 0) also feeds the advisor's window. When the layout mode asks for the
// view — LayoutFixedColumnar at the first such read, LayoutAuto once the
// window is due — and the view fits in the budget's free room, RecordScan
// derives the view in-line (the cost lands in the running query, producing
// the spikes visible in Fig. 9) and returns the derivation's duration. The
// room a view needs is known once one has been derived; before that, its
// row index is what the room must hold.
func (m *Manager) RecordScan(e *Entry, st store.ScanStats, scanWallNanos int64) time.Duration {
	m.stats.vectorizedScans.Add(1)
	m.stats.vectorizedBatches.Add(st.Batches)
	m.mu.Lock()
	if e.dead {
		m.mu.Unlock()
		return 0
	}
	e.VecScans++
	e.ScanNanos = scanWallNanos
	payload := e.Store
	if st.ComputeNanos <= 0 || payload == nil || e.view != nil {
		m.mu.Unlock()
		return 0
	}
	e.advisor.observe(st.DataNanos, st.ComputeNanos)
	derive := (m.cfg.Layout == LayoutFixedColumnar || m.cfg.Layout == LayoutAuto && e.advisor.due()) &&
		m.memoFitsLocked(e, payload, max(e.advisor.viewBytes, int64(payload.NumFlatRows())*5))
	m.mu.Unlock()
	if !derive {
		return 0
	}
	return m.deriveView(e, payload)
}

// deriveView derives the flattened view of payload, e's store, outside the
// lock and attaches it to e under the memo rules, counting the attach as a
// layout switch. The derivation moves the window forward whether the view
// attaches or not. It returns the derivation's duration.
func (m *Manager) deriveView(e *Entry, payload store.Store) time.Duration {
	start := time.Now()
	view, own := store.Flatten(payload)
	dur := time.Since(start)
	m.mu.Lock()
	e.advisor.derived(dur.Nanoseconds(), own)
	ok := e.view == nil && m.memoFitsLocked(e, payload, own)
	if ok {
		e.view = view
		e.memoBytes += own
		m.total += own
	}
	m.mu.Unlock()
	if ok {
		m.stats.layoutSwitches.Add(1)
	}
	return dur
}

// View returns what a flattening scan of payload, e's eager store snapshot,
// reads: the flattened view attached to e while e still holds payload, or
// payload itself, which the scan's cursor expands.
func (m *Manager) View(e *Entry, payload store.Store) store.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.view != nil && e.Store == payload {
		return e.view
	}
	return payload
}
