package stats

import "testing"

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Percentile(0.5); got != 3 {
		t.Errorf("P50 = %g, want 3", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("P0 = %g", got)
	}
	if got := c.Percentile(1); got != 5 {
		t.Errorf("P100 = %g", got)
	}
	if got := c.FractionBelow(3); got != 0.6 {
		t.Errorf("FractionBelow(3) = %g, want 0.6", got)
	}
	if got := c.FractionBelow(0.5); got != 0 {
		t.Errorf("FractionBelow(0.5) = %g, want 0", got)
	}
	if got := c.Mean(); got != 3 {
		t.Errorf("Mean = %g, want 3", got)
	}
	xs, ys := c.Steps()
	if len(xs) != 5 || xs[0] != 1 || ys[4] != 1.0 {
		t.Errorf("Steps = %v %v", xs, ys)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Percentile(0.5) != 0 || c.FractionBelow(1) != 0 || c.Mean() != 0 {
		t.Error("empty CDF should return zeros")
	}
}
