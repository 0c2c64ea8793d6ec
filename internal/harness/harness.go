// Package harness regenerates every table and figure of the paper's
// evaluation section (§6). Each experiment function prints the same series
// or rows the paper plots, at a configurable scale, followed by a summary
// line comparing the measured shape with the published claim.
//
// The harness exercises the system end to end: it generates datasets with
// internal/datagen, produces SQL workloads with internal/workload, and runs
// them through the public engine, varying exactly the knob each figure
// studies (layout strategy, admission policy, eviction policy, cache size).
// The paper evaluates ReCache single-threaded and so does every experiment
// here; throughput, latency and serving-stack claims are measured by
// benchmark/ (see BENCHMARK.json), not by this package.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"recache"
	"recache/internal/cache"
	"recache/internal/datagen"
)

// Options scales and directs the experiments. Zero values select defaults
// sized to finish in minutes on a laptop; the paper's full scale is a
// matter of raising SF and the query counts.
type Options struct {
	// Dir is the workspace for generated datasets (default: a temp dir).
	Dir string
	// SF is the TPC-H scale factor (default 0.002 ≈ 12K lineitems).
	SF float64
	// Queries scales every workload length (1.0 = harness defaults).
	Queries float64
	// Seed drives all generators.
	Seed int64
	// Out receives the printed tables (default os.Stdout).
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Dir == "" {
		o.Dir = filepath.Join(os.TempDir(), "recache-harness")
	}
	if o.SF == 0 {
		o.SF = 0.002
	}
	if o.Queries == 0 {
		o.Queries = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	return o
}

// Runner executes experiments, caching generated datasets across them.
type Runner struct {
	opts     Options
	tpch     *datagen.TPCHPaths
	symantec *datagen.SymantecPaths
	yelp     *datagen.YelpPaths
}

// New creates a runner.
func New(opts Options) *Runner {
	return &Runner{opts: opts.withDefaults()}
}

// Experiments lists the valid experiment ids in paper order.
func Experiments() []string {
	return []string{"table1", "fig1", "fig5", "fig6", "fig7",
		"fig9a", "fig9b", "fig9c", "fig10a", "fig10b",
		"fig11a", "fig11b", "fig11c", "fig12a", "fig12b", "fig13",
		"fig14", "fig15a", "fig15b"}
}

// Run dispatches one experiment by id ("all" runs every one).
func (r *Runner) Run(exp string) error {
	if exp == "all" {
		for _, e := range Experiments() {
			if err := r.Run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	switch exp {
	case "table1":
		return r.Table1()
	case "fig1":
		return r.Fig1()
	case "fig5":
		return r.Fig5()
	case "fig6":
		return r.Fig6()
	case "fig7":
		return r.Fig7()
	case "fig9a":
		return r.Fig9("a")
	case "fig9b":
		return r.Fig9("b")
	case "fig9c":
		return r.Fig9("c")
	case "fig10a":
		return r.Fig10(10)
	case "fig10b":
		return r.Fig10(90)
	case "fig11a":
		return r.Fig11a()
	case "fig11b":
		return r.Fig11b()
	case "fig11c":
		return r.Fig11c()
	case "fig12a":
		return r.Fig12a()
	case "fig12b":
		return r.Fig12b()
	case "fig13":
		return r.Fig13()
	case "fig14":
		return r.Fig14()
	case "fig15a":
		return r.Fig15a()
	case "fig15b":
		return r.Fig15b()
	}
	return fmt.Errorf("harness: unknown experiment %q (valid: %v, all)", exp, Experiments())
}

// nq scales a workload length.
func (r *Runner) nq(base int) int {
	n := int(float64(base) * r.opts.Queries)
	if n < 4 {
		n = 4
	}
	return n
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.opts.Out, format, args...)
}

// --- dataset management ---

func (r *Runner) ensureDir() error { return os.MkdirAll(r.opts.Dir, 0o755) }

func (r *Runner) ensureTPCH() (*datagen.TPCHPaths, error) {
	if r.tpch != nil {
		return r.tpch, nil
	}
	if err := r.ensureDir(); err != nil {
		return nil, err
	}
	p, err := datagen.TPCH(r.opts.Dir, r.opts.SF, r.opts.Seed)
	if err != nil {
		return nil, err
	}
	r.tpch = p
	return p, nil
}

func (r *Runner) ensureSymantec() (*datagen.SymantecPaths, error) {
	if r.symantec != nil {
		return r.symantec, nil
	}
	if err := r.ensureDir(); err != nil {
		return nil, err
	}
	nJSON := int(8000 * r.opts.SF / 0.002)
	nCSV := 2 * nJSON
	p, err := datagen.Symantec(r.opts.Dir, nJSON, nCSV, r.opts.Seed+1)
	if err != nil {
		return nil, err
	}
	r.symantec = p
	return p, nil
}

func (r *Runner) ensureYelp() (*datagen.YelpPaths, error) {
	if r.yelp != nil {
		return r.yelp, nil
	}
	if err := r.ensureDir(); err != nil {
		return nil, err
	}
	unit := r.opts.SF / 0.002
	p, err := datagen.Yelp(r.opts.Dir, int(400*unit), int(2800*unit), int(5600*unit), r.opts.Seed+2)
	if err != nil {
		return nil, err
	}
	r.yelp = p
	return p, nil
}

// --- engine construction ---

// newEngine wraps a manager configured with internal knobs.
func newEngine(cfg cache.Config) *recache.Engine {
	return recache.OpenWithManager(cache.NewManager(cfg))
}

func registerOrderLineitems(eng *recache.Engine, path string) error {
	return eng.RegisterJSON("orderlineitems", path, datagen.OrderLineitemsSchema)
}

func registerTPCH(eng *recache.Engine, p *datagen.TPCHPaths, lineitemJSON bool) error {
	if err := eng.RegisterCSV("customer", p.Customer, datagen.CustomerSchema, '|'); err != nil {
		return err
	}
	if err := eng.RegisterCSV("orders", p.Orders, datagen.OrdersSchema, '|'); err != nil {
		return err
	}
	if err := eng.RegisterCSV("partsupp", p.Partsupp, datagen.PartsuppSchema, '|'); err != nil {
		return err
	}
	if err := eng.RegisterCSV("part", p.Part, datagen.PartSchema, '|'); err != nil {
		return err
	}
	if lineitemJSON {
		return eng.RegisterJSON("lineitem", p.LineitemJSON, datagen.LineitemSchema)
	}
	return eng.RegisterCSV("lineitem", p.Lineitem, datagen.LineitemSchema, '|')
}

func registerSymantec(eng *recache.Engine, p *datagen.SymantecPaths) error {
	if err := eng.RegisterJSON("sjson", p.JSON, datagen.SymantecJSONSchema); err != nil {
		return err
	}
	return eng.RegisterCSV("scsv", p.CSV, datagen.SymantecCSVSchema, '|')
}

func registerYelp(eng *recache.Engine, p *datagen.YelpPaths) error {
	if err := eng.RegisterJSON("business", p.Business, datagen.YelpBusinessSchema); err != nil {
		return err
	}
	if err := eng.RegisterJSON("yuser", p.User, datagen.YelpUserSchema); err != nil {
		return err
	}
	return eng.RegisterJSON("review", p.Review, datagen.YelpReviewSchema)
}

// --- workload execution ---

// runSeq runs a query sequence, returning per-query wall times.
func runSeq(eng *recache.Engine, queries []string) ([]time.Duration, error) {
	times := make([]time.Duration, len(queries))
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			return nil, fmt.Errorf("query %d %q: %w", i, q, err)
		}
		times[i] = res.Stats.Wall
	}
	return times, nil
}

// runSeqOverheads also records the per-query caching overhead fraction.
func runSeqOverheads(eng *recache.Engine, queries []string) ([]time.Duration, []float64, error) {
	times := make([]time.Duration, len(queries))
	ovh := make([]float64, len(queries))
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d %q: %w", i, q, err)
		}
		times[i] = res.Stats.Wall
		ovh[i] = res.Stats.Overhead
	}
	return times, ovh, nil
}

func total(ts []time.Duration) time.Duration {
	var s time.Duration
	for _, t := range ts {
		s += t
	}
	return s
}

func cumulative(ts []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ts))
	var s time.Duration
	for i, t := range ts {
		s += t
		out[i] = s
	}
	return out
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%9.2f", float64(d.Microseconds())/1000) }

// pctReduction computes 100*(base-x)/base.
func pctReduction(base, x time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * float64(base-x) / float64(base)
}

// printSeries prints binned rows of per-query series so long workloads stay
// readable; the first column is the query index.
func (r *Runner) printSeries(headers []string, series [][]time.Duration, maxRows int) {
	n := 0
	for _, s := range series {
		if len(s) > n {
			n = len(s)
		}
	}
	step := 1
	if maxRows > 0 && n > maxRows {
		step = (n + maxRows - 1) / maxRows
	}
	r.printf("%6s", "qi")
	for _, h := range headers {
		r.printf(" %12s", h)
	}
	r.printf("\n")
	for i := 0; i < n; i += step {
		r.printf("%6d", i)
		for _, s := range series {
			if i < len(s) {
				r.printf(" %12s", ms(s[i]))
			} else {
				r.printf(" %12s", "-")
			}
		}
		r.printf("\n")
	}
}
