// Nested-layout demo: generates a nested orderLineitems JSON file, warms a
// full-table cache, and runs a two-phase workload (Fig. 9a of the paper).
// The entry's payload is the Parquet layout in every mode. With -layout
// auto the entry attaches the relational columnar view of it when the
// workload's unnesting scans pay for one, and flattening scans read that
// view from then on; fixed layouts are available for comparison.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"recache"
	"recache/internal/datagen"
	"recache/internal/workload"
)

func main() {
	var (
		layout = flag.String("layout", "auto", "cache layout: auto|parquet|columnar")
		sf     = flag.Float64("sf", 0.004, "TPC-H scale factor for the generated data")
		n      = flag.Int("n", 200, "number of workload queries")
	)
	flag.Parse()

	dir, err := os.MkdirTemp("", "recache-nested")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	paths, err := datagen.TPCH(dir, *sf, 42)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := recache.Open(recache.Config{Layout: *layout, Admission: "eager"})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.RegisterJSON("orderlineitems", paths.OrderLineitems,
		datagen.OrderLineitemsSchema); err != nil {
		log.Fatal(err)
	}

	// Pre-populate the cache with the full table, as the paper does.
	if _, err := eng.Query("SELECT COUNT(*) FROM orderlineitems"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache warmed; flattening scans read: %s\n", eng.CacheEntries()[0].Layout)

	queries := workload.PhasedSPA("orderlineitems", workload.OrderLineitemsAttrs(),
		*n, workload.PhaseSwitch, 7)
	var phase1, phase2 time.Duration
	lastLayout := eng.CacheEntries()[0].Layout
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			log.Fatalf("query %d: %v", i, err)
		}
		if i < *n/2 {
			phase1 += res.Stats.Wall
		} else {
			phase2 += res.Stats.Wall
		}
		if cur := eng.CacheEntries()[0].Layout; cur != lastLayout {
			what := "view attached"
			if cur == "parquet" {
				what = "view shed"
			}
			fmt.Printf("query %3d: %s, flattening scans read %s (%.1f ms derivation)\n",
				i, what, cur, float64(res.Stats.LayoutSwitch.Microseconds())/1000)
			lastLayout = cur
		}
	}
	fmt.Printf("phase 1 (nested access):     %8.1f ms\n", float64(phase1.Microseconds())/1000)
	fmt.Printf("phase 2 (non-nested access): %8.1f ms\n", float64(phase2.Microseconds())/1000)
	st := eng.CacheStats()
	fmt.Printf("views attached: %d; exact hits: %d; subsumption hits: %d\n",
		st.LayoutSwitches, st.ExactHits, st.SubsumedHits)
}
