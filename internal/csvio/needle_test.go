package csvio

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"recache/internal/expr"
	"recache/internal/value"
)

// needleData is big enough that the equality literal appears in sparse
// stretches, so the memchr filter's bulk-skip path is exercised: only every
// 97th record carries the rare name, and one record contains it as a
// substring of a longer name (a candidate the per-field test must reject).
func needleData() (string, int) {
	var b strings.Builder
	n := 500
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("name%d", i)
		switch {
		case i%97 == 0:
			name = "rare-needle"
		case i == 250:
			name = "xx-rare-needle-suffix"
		}
		fmt.Fprintf(&b, "%d|%d.5|%s\n", i, i, name)
	}
	return b.String(), n
}

// TestNeedleFilterDifferential: with the equality literal pushed, the
// filtered scan must agree record for record with the reference scan, on a
// fresh provider and on one already scanned, and the skipped count must be
// exact — bulk-skipped records included.
func TestNeedleFilterDifferential(t *testing.T) {
	data, n := needleData()
	preds := []expr.Expr{
		expr.Cmp(expr.OpEq, expr.C("name"), expr.L("rare-needle")),
		// Combined with a numeric conjunct: the needle rejects most records
		// before the int test ever decodes.
		expr.And(
			expr.Cmp(expr.OpEq, expr.C("name"), expr.L("rare-needle")),
			expr.Cmp(expr.OpGe, expr.C("id"), expr.L(200)),
		),
		// A literal that appears nowhere: everything is bulk-skipped.
		expr.Cmp(expr.OpEq, expr.C("name"), expr.L("absent-needle")),
	}
	for pi, pred := range preds {
		for _, mapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("pred%d/mapped=%v", pi, mapped), func(t *testing.T) {
				mk := func() *Provider {
					p, err := New(writeFile(t, data), testSchema(), Options{})
					if err != nil {
						t.Fatal(err)
					}
					if mapped {
						collect(t, p, nil)
					}
					return p
				}
				needed := []value.Path{value.ParsePath("id")}
				wantRows, wantOffs := scanFiltered(t, mk(), pred, needed)
				gotRows, gotOffs, skipped := scanPushed(t, mk(), pred, needed)
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Fatalf("rows:\n got %v\nwant %v", gotRows, wantRows)
				}
				if !reflect.DeepEqual(gotOffs, wantOffs) {
					t.Fatalf("offsets: got %v want %v", gotOffs, wantOffs)
				}
				// These predicates push entirely (no residual), so skipped
				// must count every non-surviving record exactly.
				if want := int64(n - len(wantRows)); skipped != want {
					t.Fatalf("skipped = %d, want %d", skipped, want)
				}
			})
		}
	}
}

// TestEqNeedle: the pushdown exposes its longest equality literal, and only
// equality qualifies.
func TestEqNeedle(t *testing.T) {
	schema := testSchema()
	pd, _ := expr.ExtractPushdown(expr.And(
		expr.Cmp(expr.OpEq, expr.C("name"), expr.L("abc")),
		expr.Cmp(expr.OpEq, expr.C("name"), expr.L("longest-literal")),
		expr.Cmp(expr.OpGe, expr.C("id"), expr.L(1)),
	), schema)
	if got := string(pd.EqNeedle()); got != "longest-literal" {
		t.Fatalf("EqNeedle = %q, want longest-literal", got)
	}
	pd, _ = expr.ExtractPushdown(expr.Cmp(expr.OpGe, expr.C("name"), expr.L("abc")), schema)
	if pd.EqNeedle() != nil {
		t.Fatalf("EqNeedle for non-equality = %q, want nil", pd.EqNeedle())
	}
	pd, _ = expr.ExtractPushdown(expr.Cmp(expr.OpLt, expr.C("id"), expr.L(9)), schema)
	if pd.EqNeedle() != nil {
		t.Fatalf("EqNeedle for numeric pushdown = %q, want nil", pd.EqNeedle())
	}
}
