package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// tinyOptions is a sub-second run at sf 0.001 with the oracle on. The
// tests assert what is emitted, never how fast.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0.3, trace: trace, sf: 0.001,
		tmp: t.TempDir(), out: t.TempDir(), setups: 1}
}

func TestBenchmarkJSONListsTheSameNames(t *testing.T) {
	bj, err := loadBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	want := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", d.Name, d.Unit)
		}
		if _, dup := want[d.Name]; dup {
			t.Errorf("metric %q listed twice in names.go", d.Name)
		}
		want[d.Name] = d.Unit
	}
	got := map[string]string{}
	for _, m := range bj.EndToEnd {
		got[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", m)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, names.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	for _, m := range bj.PerLayer {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		for n, u := range want {
			if got[n] != u {
				t.Errorf("names.go has %s [%s], BENCHMARK.json has unit %q", n, u, got[n])
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("BENCHMARK.json lists %s, names.go does not", n)
			}
		}
	}
	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", workloads, workloadNames)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, w, trace)
			out, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if out.fails.n != 0 {
				t.Errorf("%s trace=%v: %d failures: %v", w, trace, out.fails.n, out.fails.msgs)
			}
			if out.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", w, trace, out.attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := out.metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s missing or not finite (%v)", w, trace, d.Name, v)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, v)
				}
			}
			if !trace {
				continue
			}
			b, err := os.ReadFile(out.tracePath)
			if err != nil {
				t.Fatalf("%s: trace file: %v", w, err)
			}
			var doc struct {
				Spans []traceSpan `json:"spans"`
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
				t.Errorf("%s: trace file has %d spans, err %v", w, len(doc.Spans), err)
			}
			for _, s := range doc.Spans {
				if _, known := spanLayer[s.Name]; !known && s.Parent != 0 {
					t.Errorf("%s: span %q has no layer", w, s.Name)
				}
			}
			if w == "explore" || w == "churn" || w == "hot-embedded" {
				if out.metrics["server.requests"] != 0 {
					t.Errorf("%s: %v server requests, the serving stack must do no work here", w, out.metrics["server.requests"])
				}
			}
		}
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	hash := func(seed int64) string {
		d, err := genData(t.TempDir(), 0.001, seed)
		if err != nil {
			t.Fatal(err)
		}
		h, err := d.workloadHash(sqlsOf(exploreRound(rand.New(rand.NewSource(seed)), 0.001)))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if a, b := hash(11), hash(11); a != b {
		t.Errorf("same seed, different inputs: %s vs %s", a, b)
	}
	if a, b := hash(11), hash(12); a == b {
		t.Errorf("seeds 11 and 12 give the same inputs (%s)", a)
	}
	for name, gen := range map[string]func(*rand.Rand, float64) []query{"hot": hotPool, "churn": churnPool, "explore": exploreRound} {
		a, b := gen(rand.New(rand.NewSource(5)), defaultSF), gen(rand.New(rand.NewSource(5)), defaultSF)
		c := gen(rand.New(rand.NewSource(6)), defaultSF)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different queries", name)
		}
		if reflect.DeepEqual(sqlsOf(a), sqlsOf(c)) {
			t.Errorf("%s: seeds 5 and 6 give the same queries", name)
		}
		// The mix is fixed; only positions depend on the seed.
		count := func(qs []query) (n [numClasses]int) {
			for _, q := range qs {
				n[q.Class]++
			}
			return n
		}
		if count(a) != count(c) {
			t.Errorf("%s: class mix depends on the seed: %v vs %v", name, count(a), count(c))
		}
	}
	if n := len(hotPool(rand.New(rand.NewSource(1)), defaultSF)); n != 64 {
		t.Errorf("hot pool has %d queries, want 64", n)
	}
}

func TestOracleComparison(t *testing.T) {
	a := answer{[]string{"k", "v"}, [][]any{{int64(1), 0.1 + 0.2}, {int64(2), 5.0}}}
	reordered := answer{[]string{"k", "v"}, [][]any{{int64(2), 5.0}, {int64(1), 0.3}}}
	if !sameAnswer(a, reordered) {
		t.Error("row order and 1e-9 float noise must not matter")
	}
	wrong := answer{[]string{"k", "v"}, [][]any{{int64(2), 5.0}, {int64(1), 0.3001}}}
	if sameAnswer(a, wrong) {
		t.Error("a different value must not compare equal")
	}
	if sameAnswer(a, answer{a.cols, a.rows[:1]}) {
		t.Error("a missing row must not compare equal")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
