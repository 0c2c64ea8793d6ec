package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/datagen"
	"recache/internal/shard"
)

// tinyRunner runs experiments at a very small scale so the whole suite
// stays fast; shapes are asserted loosely (the real comparisons live in
// EXPERIMENTS.md runs).
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

func TestMemoryPressurePhase(t *testing.T) {
	r, buf := tinyRunner(t)
	paths, err := r.ensureTPCH()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.memoryPressure(paths); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tiered/no-cache qps ratio") {
		t.Errorf("memory-pressure summary missing:\n%s", buf.String())
	}
	var tiered, raw *Phase
	for i := range r.report.Phases {
		switch r.report.Phases[i].Name {
		case "memory-pressure":
			tiered = &r.report.Phases[i]
		case "memory-pressure-raw":
			raw = &r.report.Phases[i]
		}
	}
	if tiered == nil || raw == nil {
		t.Fatalf("phases missing from report: %+v", r.report.Phases)
	}
	if tiered.QPS <= 0 || raw.QPS <= 0 {
		t.Errorf("qps not recorded: tiered %f raw %f", tiered.QPS, raw.QPS)
	}
	if tiered.DiskHitRatio <= 0 {
		t.Errorf("disk-hit ratio not recorded: %f", tiered.DiskHitRatio)
	}
	if tiered.CacheStats == nil || tiered.CacheStats.Spills == 0 {
		t.Error("tiered phase stats missing spills")
	}
}

// The chaos phase end to end at tiny scale: killing the busiest shard of
// a replicated 4-shard fleet mid-burst must leak zero errors, open the
// breakers within one probe interval, and record both throughput phases.
func TestChaosFailover(t *testing.T) {
	r, buf := tinyRunner(t)
	if err := r.chaosFailover(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "killed shard") {
		t.Errorf("chaos summary missing:\n%s", buf.String())
	}
	var steady, failover *Phase
	for i := range r.report.Phases {
		switch r.report.Phases[i].Name {
		case "chaos-steady":
			steady = &r.report.Phases[i]
		case "chaos-failover":
			failover = &r.report.Phases[i]
		}
	}
	if steady == nil || failover == nil {
		t.Fatalf("phases missing from report: %+v", r.report.Phases)
	}
	if steady.QPS <= 0 || failover.QPS <= 0 {
		t.Errorf("qps not recorded: steady %f failover %f", steady.QPS, failover.QPS)
	}
	if failover.RecoveryMillis <= 0 {
		t.Errorf("recovery time not recorded: %+v", failover)
	}
}

// The fleet fixture every fleet phase runs on, brought up and torn down
// with no throughput or latency gate: three replicated members answer a
// routed query set exactly as an embedded engine does; after one member is
// killed the same set still answers with zero caller errors, from the
// survivors' replicas rather than raw re-scans; and Close leaves nothing
// behind — no open transaction, socket, spill dir or goroutine.
func TestFleetFailoverLifecycle(t *testing.T) {
	r, _ := tinyRunner(t)
	paths, err := r.ensureTPCH()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := recache.Open(recache.Config{Admission: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.RegisterCSV("lineitem", paths.Lineitem, datagen.LineitemSchema, '|'); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	f, err := r.startFleet(3, recache.Config{
		Admission: "eager",
		Layout:    "columnar",
		SpillDir:  filepath.Join(r.opts.Dir, "spill"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := client.DialRouter(f.addrs, client.RouterOptions{Options: client.Options{RequestTimeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 12)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity BETWEEN %d AND %d", 1+4*i, 4+4*i)
	}
	routed := func(stage string) {
		t.Helper()
		for _, q := range queries {
			want, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.Query(q)
			if err != nil {
				t.Fatalf("%s: caller saw %v", stage, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s: %s = %v, embedded says %v", stage, q, got.Rows, want.Rows)
			}
		}
	}
	routed("healthy fleet")
	if err := waitReplicas(f, int64(len(queries)), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	victim := f.m.Owner(shard.RouteKey(queries[0])).ID
	survivors := func(count func(*recache.Engine) int64) (sum int64) {
		for i, mb := range f.members {
			if i != victim {
				sum += count(mb.Engine())
			}
		}
		return sum
	}
	rawScans := func(eng *recache.Engine) int64 { return eng.RawScans("lineitem") }
	rawBefore := survivors(rawScans)
	f.members[victim].Kill()
	routed("one member killed")
	if rawAfter := survivors(rawScans); rawAfter != rawBefore {
		t.Errorf("failover cost raw scans on the survivors: %d -> %d", rawBefore, rawAfter)
	}
	if survivors(func(eng *recache.Engine) int64 { return eng.Manager().Stats().DiskHits }) == 0 {
		t.Error("no disk-tier hits on the survivors: the replicas were not used")
	}

	rt.Close()
	f.Close()
	for i, mb := range f.members {
		if open := mb.Engine().CacheStats().OpenTxns; open != 0 {
			t.Errorf("member %d closed with %d transactions open", i, open)
		}
	}
	for _, p := range f.paths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived Close: %v", p, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the fleet started", runtime.NumGoroutine(), baseline)
		}
	}
}
