package jsonio

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"recache/internal/expr"
	"recache/internal/value"
)

// needleJSON spreads a rare tag over a long file so the quoted-literal
// filter bulk-skips the stretches in between. Record 120 spells the tag
// with \u escapes — its raw bytes do not contain the literal, and only the
// backslash fallback keeps it a candidate. Record 250 contains the literal
// as a substring of a longer tag (candidate, rejected by the field test),
// and record 380 contains it as a key name only.
func needleJSON() (string, int) {
	var b strings.Builder
	n := 500
	for i := 1; i <= n; i++ {
		switch {
		case i%97 == 0:
			fmt.Fprintf(&b, `{"k":%d,"tag":"rare-needle"}`+"\n", i)
		case i == 120:
			// \u006c is 'l': the decoded tag equals the literal but the
			// raw bytes do not contain it.
			fmt.Fprintf(&b, `{"k":%d,"tag":"rare-need\u006ce"}`+"\n", i)
		case i == 250:
			fmt.Fprintf(&b, `{"k":%d,"tag":"xx-rare-needle-yy"}`+"\n", i)
		case i == 380:
			fmt.Fprintf(&b, `{"k":%d,"rare-needle":1,"tag":"plain"}`+"\n", i)
		default:
			fmt.Fprintf(&b, `{"k":%d,"tag":"tag%d"}`+"\n", i, i)
		}
	}
	return b.String(), n
}

func needleSchema() *value.Type {
	return value.TRecord(value.F("k", value.TInt), value.FOpt("tag", value.TString))
}

// TestJSONNeedleFilterDifferential: the quoted-literal filter must agree
// with the reference scan, fresh or scanned — in particular the \u-escaped
// record, whose raw bytes do not contain the literal, must still surface.
func TestJSONNeedleFilterDifferential(t *testing.T) {
	data, n := needleJSON()
	pred := expr.Cmp(expr.OpEq, expr.C("tag"), expr.L("rare-needle"))
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			mk := func() *Provider {
				p, err := New(writeFile(t, data), needleSchema())
				if err != nil {
					t.Fatal(err)
				}
				if mapped {
					collect(t, p, nil)
				}
				return p
			}
			needed := []value.Path{value.ParsePath("k")}
			wantRows, wantOffs := jsonScanFiltered(t, mk(), pred, needed)
			gotRows, gotOffs, skipped := jsonScanPushed(t, mk(), pred, needed)
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("rows:\n got %v\nwant %v", gotRows, wantRows)
			}
			if !reflect.DeepEqual(gotOffs, wantOffs) {
				t.Fatalf("offsets: got %v want %v", gotOffs, wantOffs)
			}
			if want := int64(n - len(wantRows)); skipped != want {
				t.Fatalf("skipped = %d, want %d", skipped, want)
			}
			// The escaped record must be among the survivors.
			found := false
			for _, row := range gotRows {
				if row[0].I == 120 {
					found = true
				}
			}
			if !found {
				t.Fatal("\\u-escaped record was filtered out — needle filter is unsound for escapes")
			}
			// 5 exact matches (i%97==0) + the escaped one.
			if len(gotRows) != 6 {
				t.Fatalf("%d survivors, want 6", len(gotRows))
			}
		})
	}
}
