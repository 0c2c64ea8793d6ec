package cache

import (
	"math"

	"recache/internal/store"
)

// scanObs records one query's observed cost against a cache entry — the
// D_i, C_i, r_i and c_i of §4.2.
// Vectorized-scan observations need no flag here: their nanos ARE the
// measured batch-pipeline costs, so batch speed flows into the nested
// cost comparison by construction.
type scanObs struct {
	dataNanos    int64 // D_i
	computeNanos int64 // C_i
	rows         int64 // r_i: logical rows the query needed
	ncols        int   // c_i
	layout       store.Layout
}

// advisorState holds the per-entry layout-selection state. The window
// covers queries since the last layout switch (the paper deliberately uses
// an unbounded, switch-reset window to damp thrashing on rapidly changing
// workloads). parquetHist keeps all Parquet-layout observations across the
// entry's lifetime to drive the ComputeCost(r, c) estimate of eq. (5).
type advisorState struct {
	window      []scanObs
	parquetHist []scanObs
	switches    int
	// lastConvNanos is the measured cost of the previous layout switch.
	// Eq. (3) extrapolates T from scan costs, which can badly underestimate
	// an actual rebuild; once a real conversion has been observed, the
	// decision uses max(model T, observed T) — the same reactive principle
	// the paper applies to the benefit metric (recompute from live
	// measurements, §5.1).
	lastConvNanos int64
}

// layoutDecision is what the advisor recommends after an observation.
type layoutDecision struct {
	switchTo store.Layout
	doSwitch bool
}

// observeNested appends one observation and evaluates the Parquet ↔
// relational-columnar switching rule (eqs. 1–5).
func (a *advisorState) observeNested(obs scanObs, cur store.Layout, totalRows int64) layoutDecision {
	a.window = append(a.window, obs)
	if obs.layout == store.LayoutParquet {
		a.parquetHist = append(a.parquetHist, obs)
		// Bound history to keep the nearest-neighbour search cheap.
		if len(a.parquetHist) > 256 {
			a.parquetHist = a.parquetHist[len(a.parquetHist)-256:]
		}
	}
	R := float64(totalRows)
	if R <= 0 || len(a.window) == 0 {
		return layoutDecision{}
	}
	switch cur {
	case store.LayoutParquet:
		// Eq. (1)–(3): switch to relational columnar when the accumulated
		// Parquet cost exceeds the extrapolated columnar cost plus the
		// transformation cost.
		var costP, costR, T float64
		for _, o := range a.window {
			ri := float64(o.rows)
			if ri <= 0 {
				ri = R
			}
			costP += float64(o.dataNanos + o.computeNanos)
			costR += float64(o.dataNanos) * R / ri
			if t := float64(o.dataNanos+o.computeNanos) * R / ri; t > T {
				T = t
			}
		}
		if c := float64(a.lastConvNanos); c > T {
			T = c
		}
		if costP > costR+T {
			return layoutDecision{switchTo: store.LayoutColumnar, doSwitch: true}
		}
	case store.LayoutColumnar:
		// Eq. (4)–(5): the columnar layout has negligible compute cost, so
		// Parquet's compute cost is estimated from the nearest historical
		// Parquet observation in (rows, cols) space.
		var costR, costP, T float64
		for _, o := range a.window {
			ri := float64(o.rows)
			if ri <= 0 {
				ri = R
			}
			costR += float64(o.dataNanos)
			cc := a.computeCost(o.rows, o.ncols, o.dataNanos)
			costP += (float64(o.dataNanos) + cc) * ri / R
			if t := float64(o.dataNanos+o.computeNanos) * R / ri; t > T {
				T = t
			}
		}
		if c := float64(a.lastConvNanos); c > T {
			T = c
		}
		if costR > costP+T {
			return layoutDecision{switchTo: store.LayoutParquet, doSwitch: true}
		}
	}
	return layoutDecision{}
}

// computeCost estimates Parquet's computational cost for a query accessing
// (rows, cols) as the compute cost of the closest Parquet-layout query in
// the entry's history; with no history it falls back to the data cost
// (conservative: assumes assembly costs as much as the data access).
func (a *advisorState) computeCost(rows int64, ncols int, dataNanos int64) float64 {
	if len(a.parquetHist) == 0 {
		return float64(dataNanos)
	}
	best, bestDist := 0, math.Inf(1)
	for i, h := range a.parquetHist {
		dr := float64(h.rows - rows)
		dc := float64(h.ncols - ncols)
		d := dr*dr + dc*dc*1e6 // column count differences dominate
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return float64(a.parquetHist[best].computeNanos)
}

// reset moves the tracking window forward after a switch, as §4.2
// prescribes ("it moves forward the window for further query tracking").
func (a *advisorState) reset() {
	a.window = a.window[:0]
	a.switches++
}
