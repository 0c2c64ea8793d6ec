package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"recache"
)

// The oracle is an Admission:"off" engine: it answers every query by
// scanning the raw files, so it shares no cache state with the engine
// under test. Answers are compared with floats to 1e-9 relative and row
// order normalized.

type answer struct {
	cols []string
	rows [][]any
}

func numeric(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func sameValue(a, b any) bool {
	if fa, ok := numeric(a); ok {
		fb, ok := numeric(b)
		if !ok {
			return false
		}
		if fa == fb {
			return true
		}
		return math.Abs(fa-fb) <= 1e-9*math.Max(math.Abs(fa), math.Abs(fb))
	}
	return a == b
}

func sameRow(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRowsInOrder(a, b [][]any) bool {
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sortedCopy orders rows by their non-float columns (floats may differ in
// the last bits between the two engines, so they cannot key a sort).
func sortedCopy(rows [][]any) [][]any {
	key := func(row []any) string {
		var b strings.Builder
		for _, v := range row {
			if _, isFloat := v.(float64); !isFloat {
				fmt.Fprintf(&b, "%v|", v)
			}
		}
		return b.String()
	}
	out := append([][]any(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// sameAnswer compares a result with the oracle's. Rows usually arrive in
// file order from both engines, so the in-order pass settles most
// comparisons and the sort runs only when it fails.
func sameAnswer(got, want answer) bool {
	if len(got.rows) != len(want.rows) || len(got.cols) != len(want.cols) {
		return false
	}
	if sameRowsInOrder(got.rows, want.rows) {
		return true
	}
	return sameRowsInOrder(sortedCopy(got.rows), sortedCopy(want.rows))
}

// oracleConfig is the no-cache engine's configuration; freshness follows
// the engine under test so both observe the same file state.
func oracleConfig(freshness string) recache.Config {
	return recache.Config{Admission: "off", FreshnessMode: freshness}
}

// failures collects what went wrong in a run; each entry is one failed
// operation (an error, an oracle mismatch or a violated assertion).
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}
