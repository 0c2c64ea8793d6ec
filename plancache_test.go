package recache

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"recache/internal/plan"
)

// cachedPlan returns sql's plan through the plan cache, as prepare does.
func cachedPlan(t *testing.T, eng *Engine, sql string) *planned {
	t.Helper()
	eng.mu.RLock()
	pl, err := eng.plan(sql)
	eng.mu.RUnlock()
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return pl
}

// TestPlanCacheTemplateImmutable: one cached plan per SQL text is shared by
// 16 goroutines at once, through hits, misses, lazy replays and the
// evictions of a tiny budget, with EXPLAIN beside them. The cache rewrite
// must copy what it replaces: afterwards every template renders as it did
// when it was planned, and every answer is a cache-off engine's.
func TestPlanCacheTemplateImmutable(t *testing.T) {
	queries := vecCorpus()
	oracle := testEngine(t, Config{Admission: "off"})
	want := map[string][][]any{}
	for _, q := range queries {
		res, err := oracle.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.Rows
	}
	for _, cfg := range []Config{
		{Admission: "eager", CacheCapacity: 500},
		{Admission: "lazy", CacheCapacity: 150},
		{Admission: "adaptive", CacheCapacity: 500},
	} {
		t.Run(cfg.Admission, func(t *testing.T) {
			eng := testEngine(t, cfg)
			templates := map[string]*planned{}
			text := map[string]string{}
			for _, q := range queries {
				templates[q] = cachedPlan(t, eng, q)
				text[q] = plan.Explain(templates[q].root)
			}
			const workers, iters = 16, 12
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters*len(queries); i++ {
						q := queries[(g*7+i)%len(queries)]
						if i%5 == g%5 {
							if _, err := eng.Explain(q); err != nil {
								errs <- fmt.Errorf("explain %q: %w", q, err)
								return
							}
							continue
						}
						res, err := eng.Query(q)
						if err != nil {
							errs <- fmt.Errorf("%q: %w", q, err)
							return
						}
						if !reflect.DeepEqual(res.Rows, want[q]) {
							errs <- fmt.Errorf("%q: %v, want %v", q, res.Rows, want[q])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			st := eng.CacheStats()
			if st.Evictions == 0 || st.ExactHits+st.SubsumedHits == 0 {
				t.Errorf("the swarm should hit and evict: %+v", st)
			}
			for _, q := range queries {
				if got := cachedPlan(t, eng, q); got != templates[q] {
					t.Errorf("%q was planned again", q)
				}
				if got := plan.Explain(templates[q].root); got != text[q] {
					t.Errorf("%q: the cached plan changed:\n%s\nwas\n%s", q, got, text[q])
				}
			}
		})
	}
}

// TestPlanCacheInvalidatedOnRegister: register empties the plan cache, so a
// plan is always built against the registry it runs under. A column that
// resolves to one table is ambiguous once a second table with that column
// joins the query.
func TestPlanCacheInvalidatedOnRegister(t *testing.T) {
	eng := testEngine(t, Config{Admission: "eager"})
	single := "SELECT SUM(price) FROM t WHERE qty >= 20"
	joined := "SELECT SUM(price) FROM t JOIN u ON id = uid"
	if _, err := eng.Query(single); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(joined); err == nil || !strings.Contains(err.Error(), `unknown table "u"`) {
		t.Fatalf("join with an unregistered table: %v", err)
	}
	if eng.plans[single] == nil || eng.plans[joined] != nil {
		t.Fatalf("cached plans: %v, want the single-table plan only", eng.plans)
	}
	if err := eng.RegisterCSV("u", writeTemp(t, "u.csv", "1|9.5\n2|8.5\n"), "uid int, price float", '|'); err != nil {
		t.Fatal(err)
	}
	if len(eng.plans) != 0 {
		t.Errorf("register kept %d cached plans", len(eng.plans))
	}
	if _, err := eng.Query(joined); err == nil || !strings.Contains(err.Error(), `ambiguous column "price"`) {
		t.Errorf("price names a column of both tables: %v", err)
	}
	if res, err := eng.Query(single); err != nil || res.Rows[0][0] != 16.0 {
		t.Errorf("single-table query after register: %v, %v", res, err)
	}
}

// TestPlanCacheBounds: a query that fails to parse or plan is not cached,
// and the cache never holds more than planCacheSize plans.
func TestPlanCacheBounds(t *testing.T) {
	eng := testEngine(t, Config{Admission: "off"})
	for _, bad := range []string{"SELECT FROM", "SELECT nope FROM t", "SELECT COUNT(*) FROM missing"} {
		for i := 0; i < 2; i++ {
			if _, err := eng.Query(bad); err == nil {
				t.Fatalf("%q: no error", bad)
			}
			if _, err := eng.Explain(bad); err == nil {
				t.Fatalf("explain %q: no error", bad)
			}
		}
		if _, ok := eng.plans[bad]; ok {
			t.Errorf("%q: a failing query was cached", bad)
		}
	}
	for i := 0; i < planCacheSize+50; i++ {
		if _, err := eng.Query(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE qty > %d", i)); err != nil {
			t.Fatal(err)
		}
		if n := len(eng.plans); n > planCacheSize {
			t.Fatalf("after %d distinct queries the plan cache holds %d plans, bound %d", i+1, n, planCacheSize)
		}
	}
}
