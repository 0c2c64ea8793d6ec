// Command recache-bench regenerates the tables and figures of the ReCache
// paper's evaluation section. Each experiment prints the series the paper
// plots plus a summary line comparing against the published claim.
//
// Usage:
//
//	recache-bench -exp fig14 [-sf 0.002] [-queries 1.0] [-dir /tmp/data] [-seed 42]
//	recache-bench -exp all
//	recache-bench -list
//
// The experiments are single-threaded, as the paper's are. Throughput and
// latency claims about this repository are made with benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"recache/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (table1, fig1, fig5..fig15b, all)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		dir     = flag.String("dir", "", "dataset workspace (default: temp dir)")
		sf      = flag.Float64("sf", 0, "TPC-H scale factor (default 0.002)")
		queries = flag.Float64("queries", 0, "workload length multiplier (default 1.0)")
		seed    = flag.Int64("seed", 0, "generator seed (default 42)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(append(harness.Experiments(), "all"), "\n"))
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "recache-bench: -exp required (use -list for ids)")
		os.Exit(2)
	}
	r := harness.New(harness.Options{
		Dir:     *dir,
		SF:      *sf,
		Queries: *queries,
		Seed:    *seed,
		Out:     os.Stdout,
	})
	if err := r.Run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "recache-bench:", err)
		os.Exit(1)
	}
}
