package cache

import (
	"testing"

	"recache/internal/store"
)

// feed simulates a workload where each ladder size has a fixed nanos/row
// cost; the tuner is driven with whatever size it currently asks for.
func feed(t *batchTune, perRow map[int]float64, iters int) {
	for i := 0; i < iters; i++ {
		rows := int64(10_000)
		used := t.rows()
		nanos := int64(perRow[used] * float64(rows))
		t.observe(rows, int64(used), nanos)
	}
}

func TestBatchTuneSettlesOnFastestSize(t *testing.T) {
	// Large batches amortize best for this (synthetic) workload.
	cost := map[int]float64{256: 9, store.BatchRows: 6, 4096: 2}
	var tune batchTune
	if tune.rows() != store.BatchRows {
		t.Fatalf("untrained tuner must use the default, got %d", tune.rows())
	}
	feed(&tune, cost, 40)
	if tune.rows() != 4096 {
		t.Errorf("tuner settled on %d, want 4096", tune.rows())
	}

	// And the other direction: small batches win.
	cost = map[int]float64{256: 2, store.BatchRows: 6, 4096: 9}
	tune = batchTune{}
	feed(&tune, cost, 40)
	if tune.rows() != 256 {
		t.Errorf("tuner settled on %d, want 256", tune.rows())
	}
}

func TestBatchTuneReprobesAfterDrift(t *testing.T) {
	var tune batchTune
	feed(&tune, map[int]float64{256: 9, store.BatchRows: 6, 4096: 2}, 40)
	if tune.rows() != 4096 {
		t.Fatalf("setup: settled on %d", tune.rows())
	}
	// The workload drifts: large batches become slow. After the re-probe
	// interval the tuner must abandon 4096.
	feed(&tune, map[int]float64{256: 2, store.BatchRows: 3, 4096: 9}, 3*batchReprobe)
	if tune.rows() == 4096 {
		t.Error("tuner never re-probed away from a size that became slow")
	}
}

func TestBatchTuneIgnoresOffLadderAndJunk(t *testing.T) {
	var tune batchTune
	tune.observe(0, 1024, 100)   // no rows
	tune.observe(100, 1024, 0)   // no time
	tune.observe(100, 777, 1000) // off-ladder batch size
	if tune.started {
		t.Error("junk observations must not start the tuner")
	}
	if tune.rows() != store.BatchRows {
		t.Errorf("rows = %d", tune.rows())
	}
}

func TestReadmissionResetsBatchTuner(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Admission: AlwaysEager, SpillDir: dir})
	ds := flatDataset("t")
	m.BeginQuery()
	e := buildCostly(t, m, ds, nil, costly)
	m.mu.Lock()
	e.advisor.batch.observe(10_000, 4096, 20_000)
	started := e.advisor.batch.started
	m.mu.Unlock()
	if !started {
		t.Fatal("setup: tuner not started")
	}
	m.mu.Lock()
	m.queueSpillLocked(e)
	m.mu.Unlock()
	m.drainSpills()
	if _, _, _, err := m.Resident(e); err != nil {
		t.Fatal(err)
	}
	if m.BatchRowsFor(e) != store.BatchRows {
		t.Errorf("re-admitted entry should re-learn from the default, got %d", m.BatchRowsFor(e))
	}
	m.mu.Lock()
	started = e.advisor.batch.started
	m.mu.Unlock()
	if started {
		t.Error("re-admission must reset the batch tuner")
	}
}
