package main

import (
	"strconv"
	"time"
)

// The sandbox this benchmark runs in shares its processor with neighbours:
// for minutes at a time everything, this benchmark's own data generator
// included, runs 1.3-1.6 times slower, and no statistic taken inside a
// 15-second run can average that away. So every client interleaves a small
// fixed piece of reference work with its queries (after every query on the
// single-client workloads, after every 32nd on the hot ones) and the
// timed phases are reported at a nominal machine speed, the one at which
// the reference work takes referenceNominal:
//
//	speed factor    = median reference time in the phase / referenceNominal
//	time reported   = time measured / speed factor
//	rate reported   = rate measured * speed factor
//
// The reference work uses only strconv and its own buffers, never the
// engine, so no change to the engine can move it. Measured on the seed
// commit over 114 fresh-engine hot-embedded windows while the machine's
// speed wandered by 40%: log-log slope of qps against the reference time
// -0.98 (cpu per query 0.97, hit p50 0.81, hit p95 1.18), and the spread
// of qps fell from 6.7% to 2.6%, of hit p50 from 6.6% to 1.9%.
//
// The raw values are printed beside the reported ones ("raw." lines) and a
// traced run reports the window's factor as machine.speed_factor.

// referenceNominal is what the reference work takes on the machine the
// benchmark was defined on when nothing contends with it. Anchoring the
// factor to a constant, not to the fastest reference run a process
// happens to see (which varied by 9% from process to process), keeps the
// factor's own noise out of the metrics; on another machine it scales
// every reported time by one constant.
const referenceNominal = 200 * time.Microsecond

// view selects how a phase's times are presented: reported at the nominal
// machine speed, or raw as the clocks read them.
type view bool

const (
	reported view = true
	raw      view = false
)

// warmReference runs the reference until it is warm: the first dozen runs
// of a process are a third slower than the rest (cold caches, frequency
// ramp) and would read as slowness of whatever phase came first.
func warmReference() { new(reference).burst(40) }

// reference is one client's reference work and the durations it measured.
type reference struct {
	buf  []byte
	cols [4][]float64
	// at[i] is when run i ended, since the epoch the owner chose; durs[i]
	// how long it took, in nanoseconds.
	at   []int64
	durs []float64
	sink float64 // keeps the work from being optimised away
}

// run formats 400 rows of four numbers as '|'-delimited text and parses
// them back into columns: about 0.2 ms of the kind of work the engine's
// tokenizers and result boxing do.
func (r *reference) run(epoch time.Time) {
	start := time.Now()
	r.buf = r.buf[:0]
	x := uint64(88172645463325252)
	for i := 0; i < 400; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.buf = strconv.AppendInt(r.buf, int64(x%100000), 10)
		r.buf = append(r.buf, '|')
		r.buf = strconv.AppendInt(r.buf, int64(x>>20%50), 10)
		r.buf = append(r.buf, '|')
		r.buf = strconv.AppendFloat(r.buf, float64(x>>10%10000000)/100, 'f', 2, 64)
		r.buf = append(r.buf, '|')
		r.buf = strconv.AppendFloat(r.buf, float64(x>>30%11)/100, 'f', 2, 64)
		r.buf = append(r.buf, '\n')
	}
	for c := range r.cols {
		r.cols[c] = r.cols[c][:0]
	}
	var sum float64
	col, from := 0, 0
	for i, b := range r.buf {
		if b != '|' && b != '\n' {
			continue
		}
		f, _ := strconv.ParseFloat(string(r.buf[from:i]), 64)
		r.cols[col] = append(r.cols[col], f)
		sum += f
		from = i + 1
		col++
		if b == '\n' {
			col = 0
		}
	}
	r.sink += sum
	end := time.Now()
	r.at = append(r.at, end.Sub(epoch).Nanoseconds())
	r.durs = append(r.durs, float64(end.Sub(start).Nanoseconds()))
}

// burst runs the reference n times: a reading of the machine's speed at
// one instant, for phases the reference cannot be interleaved with.
func (r *reference) burst(n int) {
	epoch := time.Now()
	for i := 0; i < n; i++ {
		r.run(epoch)
	}
}

// factor is a phase's speed factor: how much slower than nominal the
// reference ran in it.
func (v view) factor(durs []float64) float64 {
	if v == raw || len(durs) == 0 {
		return 1
	}
	return median(durs) / float64(referenceNominal.Nanoseconds())
}
