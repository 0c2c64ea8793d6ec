package csvio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recache/internal/expr"
	"recache/internal/rawfile/rawfiletest"
	"recache/internal/value"
)

// FuzzScanEquivalence feeds arbitrary bytes to the CSV tokenizer: no access
// path may panic, and on a file a full scan accepts they must all agree, the
// typed kernel (AppendColumns) included (see rawfiletest.Equivalence).
func FuzzScanEquivalence(f *testing.F) {
	// The first hundred needle records hold one rare match; the whole
	// fixture would only slow the fuzzer's input minimization down.
	needle, _ := needleData()
	needle = needle[:strings.Index(needle, "\n101|")+1]
	for _, seed := range []string{
		testData, pushData, needle,
		"1|10.5|alpha|extra|junk\n2|20.25|beta\n", "1|10.5|alpha", "1|1.5|a\nxx|2.5|b\n",
		"1||\n\n", "9223372036854775808|1|a\n", "2.7|1|a\n2.0|1|b\n", "",
		// The typed kernel's verdicts, record by record: good, bad float,
		// empty fields, integral float in an int, extra trailing fields.
		"1|1.5|a\n2|x|b\n3||\n4.0|1e2|d|e|f\n5|.|\n",
	} {
		f.Add([]byte(seed))
	}
	preds := []expr.Expr{
		expr.Cmp(expr.OpGe, expr.C("id"), expr.L(2)),
		expr.Cmp(expr.OpLt, expr.C("price"), expr.L(10.5)),
		expr.Cmp(expr.OpEq, expr.C("name"), expr.L("alpha")),
		expr.And(expr.Cmp(expr.OpEq, expr.C("name"), expr.L("rare-needle")), expr.Cmp(expr.OpGt, expr.C("id"), expr.L(50))),
	}
	masks := [][]value.Path{{value.ParsePath("price")}}
	path := filepath.Join(f.TempDir(), "fuzz.csv")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := New(path, testSchema(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		rawfiletest.Equivalence(t, p, len(data), preds, masks)
	})
}
