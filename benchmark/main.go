// Command benchmark is the ReCache benchmark: four workloads, ten
// end-to-end metrics, per-layer attribution and a traced run. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// One invocation runs one workload once and prints every metric as
// "workload metric value unit" lines followed by one JSON object:
//
//	bash benchmark/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// --suite runs workloads repeatedly in child processes and prints the
// spread of every metric (see suite.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSF sizes the data: lineitem.csv is about 5.6 MB (120k rows),
// lineitem.json 21 MB and orderlineitems.json 23 MB.
const defaultSF = 0.02

func runWorkload(o options) (*outcome, error) {
	switch o.workload {
	case "explore":
		return runExplore(o)
	case "hot-embedded":
		return runHot(o, false)
	case "hot-wire":
		return runHot(o, true)
	case "churn":
		return runChurn(o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

// metricJSON is one metric in the result object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the outcome's metrics (the end-to-end set untraced, the
// per-layer set traced) and returns the result object.
func report(o options, out *outcome) result {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Attempted: out.attempted, Failed: out.fails.n, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.fails.add("metric %s: no finite value (%v)", d.Name, v)
			v = 0
		}
		res.Metrics[d.Name] = metricJSON{v, d.Unit}
		fmt.Printf("%s %s %.6g %s\n", o.workload, d.Name, v, d.Unit)
	}
	for _, d := range defs {
		if raw, ok := out.raw[d.Name]; ok && raw != out.metrics[d.Name] {
			fmt.Printf("%s raw.%s %.6g %s\n", o.workload, d.Name, raw, d.Unit)
		}
	}
	fmt.Printf("%s workload_hash %s -\n", o.workload, out.hash)
	if out.tracePath != "" {
		fmt.Printf("%s trace_file %s -\n", o.workload, out.tracePath)
	}
	for _, m := range out.fails.msgs {
		fmt.Fprintln(os.Stderr, "FAIL:", m)
	}
	res.Failed = out.fails.n
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res
}

func main() {
	var o options
	var trace int
	var scale string
	var su suiteOptions
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (--suite: comma-separated, default all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated data and query sequence")
	flag.Float64Var(&o.seconds, "seconds", 15, "seconds the timed window measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes trace-<workload>.json")
	flag.Float64Var(&o.sf, "sf", defaultSF, "TPC-H-like scale factor of the generated data")
	flag.StringVar(&scale, "scale", "", `"tiny": shorthand for --sf 0.001`)
	flag.StringVar(&o.ablate, "ablate", "", "switch an engine mechanism off: pushdown or vectorized (sensitivity check)")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "recache-bench", "tmp"), "scratch directory")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "recache-bench", "out"), "directory for trace files")
	flag.BoolVar(&su.on, "suite", false, "run the workloads --repeat times each in child processes and print every metric's spread")
	flag.IntVar(&su.repeat, "repeat", 2, "--suite: runs per workload, each with the next seed")
	flag.BoolVar(&su.check, "check", false, "--suite: fail when a metric's halves differ, or its spread exceeds, its bound in BENCHMARK.json")
	flag.StringVar(&su.json, "json", "", "--suite: also write the report to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if scale == "tiny" {
		o.sf = 0.001
	} else if scale != "" {
		fatal(fmt.Errorf("unknown --scale %q", scale))
	}
	if o.ablate != "" && o.ablate != "pushdown" && o.ablate != "vectorized" {
		fatal(fmt.Errorf("unknown --ablate %q", o.ablate))
	}
	o.trace = trace != 0
	if su.on {
		if err := runSuite(o, su); err != nil {
			fatal(err)
		}
		return
	}

	runtime.GOMAXPROCS(clients())
	o.setups = 3
	warmReference()
	if o.trace {
		o.setups = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	o.tmp = filepath.Join(o.tmp, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fatal(err)
	}
	out, err := runWorkload(o)
	os.RemoveAll(o.tmp)
	if err != nil {
		fatal(err)
	}
	res := report(o, out)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
