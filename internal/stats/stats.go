// Package stats provides the CDF/percentile helpers the evaluation harness
// reports its error and latency distributions with.
package stats

import "sort"

// CDF summarizes a sample of float64 observations.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the observations.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of observations.
func (c *CDF) N() int { return len(c.sorted) }

// Percentile returns the value at quantile q in [0,1] (nearest-rank).
func (c *CDF) Percentile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(q*float64(len(c.sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// FractionBelow returns the fraction of observations <= x.
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Mean returns the arithmetic mean of the observations.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var s float64
	for _, x := range c.sorted {
		s += x
	}
	return s / float64(len(c.sorted))
}

// Steps returns (x, cumulative fraction) pairs suitable for plotting the
// CDF as the paper's figures do.
func (c *CDF) Steps() ([]float64, []float64) {
	xs := make([]float64, len(c.sorted))
	ys := make([]float64, len(c.sorted))
	for i, x := range c.sorted {
		xs[i] = x
		ys[i] = float64(i+1) / float64(len(c.sorted))
	}
	return xs, ys
}
