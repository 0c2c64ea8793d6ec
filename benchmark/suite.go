package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The suite runs workloads repeatedly, one child process per run (a clean
// heap and spill directory each), alternating the workload order between
// repetitions, and reports every metric's median, quartiles and spread
// (interquartile range as a share of the median, the driver's own
// measure). With --check it also enforces the bounds in BENCHMARK.json.

type suiteOptions struct {
	on     bool
	repeat int
	check  bool
	json   string
}

// benchmarkJSON is the part of BENCHMARK.json the check reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// quartiles is Python's statistics.quantiles(xs, n=4) (exclusive method),
// which the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// suiteRow is one metric of one workload over the suite's runs.
type suiteRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3-q1)/median
}

func runSuite(o options, su suiteOptions) error {
	workloads := workloadNames
	if o.workload != "" {
		workloads = strings.Split(o.workload, ",")
	}
	if su.repeat < 1 {
		return fmt.Errorf("--repeat %d: need at least 1", su.repeat)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[string]string{}
	hashes := map[string]string{}
	failed := 0
	for rep := 0; rep < su.repeat; rep++ {
		order := append([]string(nil), workloads...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			seed := o.seed + int64(rep)
			args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"--sf", strconv.FormatFloat(o.sf, 'g', -1, 64), "--tmp", o.tmp, "--out", o.out}
			if o.trace {
				args = append(args, "--trace", "1")
			}
			if o.ablate != "" {
				args = append(args, "--ablate", o.ablate)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
				return fmt.Errorf("%s seed %d: %v (no result: %v)", w, seed, err, jerr)
			}
			for _, l := range lines {
				f := strings.Fields(string(l))
				if len(f) != 4 {
					continue
				}
				if f[1] == "workload_hash" {
					hashes[fmt.Sprintf("%s seed %d", w, seed)] = f[2]
				}
				if v, err := strconv.ParseFloat(f[2], 64); err == nil && strings.HasPrefix(f[1], "raw.") {
					values[key{w, f[1]}] = append(values[key{w, f[1]}], v)
					units[f[1]] = f[3]
				}
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %-13s seed %d: attempted %d failed %d\n",
				rep+1, su.repeat, w, seed, res.Attempted, res.Failed)
			failed += res.Failed
			for name, m := range res.Metrics {
				values[key{w, name}] = append(values[key{w, name}], m.Value)
				units[name] = m.Unit
			}
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var rows []suiteRow
	fmt.Printf("| workload | metric | unit | median | q1 | q3 | spread | spread as the clocks read |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range defs {
			vs := values[key{w, d.Name}]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			row := suiteRow{w, d.Name, units[d.Name], vs, q2, q1, q3, ratio(q3-q1, q2)}
			rows = append(rows, row)
			raw := "="
			if rv := values[key{w, "raw." + d.Name}]; len(rv) > 0 {
				r1, r2, r3 := quartiles(rv)
				raw = fmt.Sprintf("%.1f%%", 100*ratio(r3-r1, r2))
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.5g | %.1f%% | %s |\n", w, d.Name, row.Unit, q2, q1, q3, 100*row.Spread, raw)
		}
	}
	runs := make([]string, 0, len(hashes))
	for run := range hashes {
		runs = append(runs, run)
	}
	sort.Strings(runs)
	for _, run := range runs {
		fmt.Printf("workload_hash %s %s\n", run, hashes[run])
	}
	if su.json != "" {
		b, err := json.MarshalIndent(struct {
			Rows   []suiteRow        `json:"rows"`
			Hashes map[string]string `json:"workload_hashes"`
			Failed int               `json:"failed"`
		}{rows, hashes, failed}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(su.json, b, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	if su.check && !o.trace {
		return checkBounds(rows, su.repeat)
	}
	return nil
}

// checkBounds fails when two sets of runs of the same code disagree: the
// median of a metric's second half of runs is worse than its first half's
// by more than the metric's bound, or (from four runs on) its spread
// exceeds the bound. setup_s's spread is reported but not enforced, as in
// the driver.
func checkBounds(rows []suiteRow, repeat int) error {
	bj, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bad []string
	for _, row := range rows {
		for _, m := range bj.EndToEnd {
			if m.Name != row.Metric {
				continue
			}
			if repeat >= 2 {
				half := len(row.Values) / 2
				first, second := median(row.Values[:half]), median(row.Values[len(row.Values)-half:])
				worse := ratio(second-first, first)
				if m.Better == "higher" {
					worse = -worse
				}
				if worse > m.Bound {
					bad = append(bad, fmt.Sprintf("%s %s: second half %.5g is %.1f%% worse than first half %.5g (bound %.0f%%)",
						row.Workload, row.Metric, second, 100*worse, first, 100*m.Bound))
				}
			}
			if repeat >= 4 && m.Name != "setup_s" && row.Spread > m.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: spread %.1f%% exceeds bound %.0f%%",
					row.Workload, row.Metric, 100*row.Spread, 100*m.Bound))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("repeatability check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("repeatability check passed")
	return nil
}
