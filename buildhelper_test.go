package recache

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"recache/internal/csvio"
	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/store"
)

// helperGate holds the first typed-kernel call that decodes leaf c — a
// column no query of TestBuildHelperJoins reads, so only a build's helper
// asks for it — until release closes: it runs onHold, closes held and
// waits. The scan's cursor takes no step past its first before held.
// stepped is when the query last stepped (its cursor, or its own leaves'
// decode) or the hold began, if later: a query that steps no more is
// waiting for the held helper from about then on.
type helperGate struct {
	onHold  func()
	first   atomic.Bool
	held    chan struct{}
	release chan struct{}
	stepped atomic.Int64 // UnixNano
}

func (g *helperGate) step() { g.stepped.Store(time.Now().UnixNano()) }

type gatedAppender struct {
	*csvio.Provider
	gate atomic.Pointer[helperGate]
}

func (p *gatedAppender) AppendColumns(epoch uint64, offs []int64, dst []*store.Vec, lengths []int32) ([]int32, error) {
	g := p.gate.Load()
	if g != nil && dst[2] != nil && g.first.CompareAndSwap(false, true) {
		if g.onHold != nil {
			g.onHold()
		}
		g.step()
		close(g.held)
		<-g.release
		return p.Provider.AppendColumns(epoch, offs, dst, lengths)
	}
	lengths, err := p.Provider.AppendColumns(epoch, offs, dst, lengths)
	if g != nil {
		g.step()
	}
	return lengths, err
}

func (p *gatedAppender) PushdownCursor(epoch uint64, from int64, pd *expr.Pushdown) (plan.OffsetCursor, error) {
	c, err := p.Provider.PushdownCursor(epoch, from, pd)
	if err != nil {
		return nil, err
	}
	g, steps := p.gate.Load(), 0
	return func(dst []int64, n int) ([]int64, int64, error) {
		if g == nil {
			return c(dst, n)
		}
		if steps++; steps > 1 {
			<-g.held
		}
		defer g.step()
		return c(dst, n)
	}, nil
}

// TestBuildHelperJoins: a build's helper decodes the leaves the query skips
// beside the query, and the query never returns while it runs — not when
// the build completes, nor when the query fails on a field it reads, nor
// when the file is rewritten between two chunks, nor when the §5.2 sample
// turns the build lazy, nor when a replay upgrades a lazy entry. Each query
// runs while the helper's kernel call is held, and must still be running
// when the test releases it; the wait is charged to the build, which takes
// at least the hold, timed from the query's last step before it waited. A
// build that fails admits nothing.
func TestBuildHelperJoins(t *testing.T) {
	const records, hold = 3000, 50 * time.Millisecond
	const sumA = records * (records - 1) / 2
	rows := func(n int, bad int) string {
		var b strings.Builder
		for i := range n {
			if i == bad {
				fmt.Fprintf(&b, "%d|x|%d.5\n", i, i)
				continue
			}
			fmt.Fprintf(&b, "%d|%d|%d.5\n", i, i%7, i)
		}
		return b.String()
	}
	open := func(t *testing.T, cfg Config, data string) (*Engine, *gatedAppender, string) {
		eng, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		schema, err := ParseSchema("a int, b int, c float")
		if err != nil {
			t.Fatal(err)
		}
		path := writeTemp(t, "t.csv", data)
		base, err := csvio.New(path, schema, csvio.Options{Delim: '|'})
		if err != nil {
			t.Fatal(err)
		}
		p := &gatedAppender{Provider: base}
		if err := eng.RegisterProvider("t", plan.FormatCSV, p); err != nil {
			t.Fatal(err)
		}
		return eng, p, path
	}
	// held runs sql with the helper's call held until the query has taken no
	// step for hold: the query must not return until the test releases it.
	held := func(t *testing.T, eng *Engine, p *gatedAppender, sql string, onHold func()) (*Result, error) {
		t.Helper()
		g := &helperGate{onHold: onHold, held: make(chan struct{}), release: make(chan struct{})}
		p.gate.Store(g)
		defer p.gate.Store(nil)
		type answer struct {
			res *Result
			err error
		}
		done := make(chan answer, 1)
		go func() {
			res, err := eng.Query(sql)
			done <- answer{res, err}
		}()
		select {
		case <-g.held:
		case a := <-done:
			t.Fatalf("%s returned (%v) without a helper decoding leaf c", sql, a.err)
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: no helper call after 20s", sql)
		}
		for {
			wait := time.Until(time.Unix(0, g.stepped.Load()).Add(hold))
			if wait <= 0 {
				break
			}
			select {
			case a := <-done:
				close(g.release)
				t.Fatalf("%s returned (%v) while its build's helper was running", sql, a.err)
			case <-time.After(wait):
			}
		}
		close(g.release)
		a := <-done
		if s := eng.CacheStats(); s.OpenTxns != 0 {
			t.Errorf("%s: OpenTxns = %d", sql, s.OpenTxns)
		}
		return a.res, a.err
	}
	check := func(t *testing.T, res *Result, err error, want float64) {
		t.Helper()
		if err != nil || res.Rows[0][0].(float64) != want {
			t.Fatalf("res = %v, err = %v; want %v", res, err, want)
		}
		if res.Stats.CacheBuild < hold {
			t.Errorf("CacheBuild = %v, want at least the %v the query waited for the helper", res.Stats.CacheBuild, hold)
		}
	}
	modes := func(eng *Engine) (m []string) {
		for _, e := range eng.CacheEntries() {
			m = append(m, e.Mode)
		}
		return m
	}
	const sql = "SELECT SUM(a) FROM t WHERE a >= 0"

	t.Run("eager-completes", func(t *testing.T) {
		eng, p, _ := open(t, Config{Admission: "eager"}, rows(records, -1))
		res, err := held(t, eng, p, sql, nil)
		check(t, res, err, sumA)
		if m := modes(eng); len(m) != 1 || m[0] != "eager" {
			t.Errorf("entries = %v, want one eager", m)
		}
	})
	t.Run("needed-field-error", func(t *testing.T) {
		eng, p, _ := open(t, Config{Admission: "eager"}, rows(records, store.BatchRows+10))
		if _, err := held(t, eng, p, "SELECT SUM(b) FROM t WHERE a >= 0", nil); err == nil || !strings.Contains(err.Error(), `field "b"`) {
			t.Fatalf("err = %v, want the field error", err)
		}
		if m := modes(eng); len(m) != 0 {
			t.Errorf("entries = %v after a failed build", m)
		}
	})
	t.Run("rewrite-between-chunks", func(t *testing.T) {
		// The rewrite lands before the cursor's second step, which fails
		// with ErrEpochChanged; the engine retries against the new file.
		eng, p, path := open(t, Config{Admission: "eager"}, rows(records, -1))
		const after = 2000
		res, err := held(t, eng, p, sql, func() {
			if err := os.WriteFile(path, []byte(rows(after, -1)), 0o644); err != nil {
				t.Error(err)
			}
			if rep, err := p.Refresh(); err != nil || rep.Status != plan.FileRewritten {
				t.Errorf("Refresh = %+v, %v", rep, err)
			}
		})
		if err != nil || res.Rows[0][0].(float64) != after*(after-1)/2 {
			t.Fatalf("res = %v, err = %v; want the rewritten file's sum", res, err)
		}
		if m := modes(eng); len(m) != 1 || m[0] != "eager" {
			t.Errorf("entries = %v, want the retry's eager entry only", m)
		}
	})
	lazy := Config{AdmissionSampleSize: 100, AdmissionThreshold: 1e-12}
	t.Run("lazy-at-sample", func(t *testing.T) {
		eng, p, _ := open(t, lazy, rows(records, -1))
		res, err := held(t, eng, p, sql, nil)
		check(t, res, err, sumA)
		if m := modes(eng); len(m) != 1 || m[0] != "lazy" {
			t.Errorf("entries = %v, want one lazy", m)
		}
	})
	t.Run("lazy-upgrade", func(t *testing.T) {
		eng, p, _ := open(t, lazy, rows(records, -1))
		if _, err := eng.Query(sql); err != nil {
			t.Fatal(err)
		}
		res, err := held(t, eng, p, sql, nil)
		check(t, res, err, sumA)
		if m, s := modes(eng), eng.CacheStats(); len(m) != 1 || m[0] != "eager" || s.LazyUpgrades != 1 {
			t.Errorf("entries = %v, LazyUpgrades = %d; want the entry upgraded", m, s.LazyUpgrades)
		}
	})
}
