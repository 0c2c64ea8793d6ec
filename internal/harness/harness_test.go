package harness

import (
	"bytes"
	"strings"
	"testing"
)

// tinyRunner runs experiments at a very small scale so the whole suite
// stays fast; only each experiment's summary line is asserted.
func tinyRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	r := New(Options{
		Dir:     t.TempDir(),
		SF:      0.0005, // ~750 orders / ~3000 lineitems
		Queries: 0.08,   // 8% of paper query counts
		Seed:    17,
		Out:     &buf,
	})
	return r, &buf
}

func TestUnknownExperiment(t *testing.T) {
	r, _ := tinyRunner(t)
	if err := r.Run("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// Every paper experiment runs at tiny scale and prints its summary. The
// experiments of one case share a runner (and so one generated dataset).
func TestExperiments(t *testing.T) {
	for _, tc := range []struct {
		exps []string
		want []string
	}{
		{[]string{"table1"}, []string{"Reactive Cache (ReCache)"}},
		{[]string{"fig1", "fig9a", "fig9b", "fig9c"}, []string{"totals: columnar", "recache closer to optimal"}},
		{[]string{"fig5", "fig6"}, []string{"cardinality"}},
		{[]string{"fig7"}, []string{"P50 error"}},
		{[]string{"fig10a", "fig11a", "fig11b", "fig11c"}, []string{"vs parquet", "nested%"}},
		{[]string{"fig12a", "fig12b", "fig13"}, []string{"recache vs no-cache"}},
		{[]string{"fig14"}, fig14Policies()},
		{[]string{"fig15a", "fig15b"}, []string{"recache vs parquet/greedy"}},
	} {
		t.Run(strings.Join(tc.exps, "+"), func(t *testing.T) {
			r, buf := tinyRunner(t)
			for _, exp := range tc.exps {
				if err := r.Run(exp); err != nil {
					t.Fatalf("%s: %v", exp, err)
				}
			}
			for _, w := range tc.want {
				if !strings.Contains(buf.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, buf.String())
				}
			}
		})
	}
}
