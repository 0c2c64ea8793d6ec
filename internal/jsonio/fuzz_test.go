package jsonio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/rawfile/rawfiletest"
	"recache/internal/value"
)

// FuzzScanEquivalence feeds arbitrary bytes to the JSON tokenizer: no access
// path may panic, and on a file a full scan accepts they must all agree (see
// rawfiletest.Equivalence). The schema has a nested record and a list, which
// the map skips and the schema-guided parser walks; the two must find the
// same value ends, and the typed kernel (AppendColumns) decodes it into leaf
// vectors and list lengths, held to the decoded records. The same bytes are
// then read under a flat schema, where the nested keys become unknown ones.
func FuzzScanEquivalence(f *testing.F) {
	schema := value.TRecord(
		value.F("k", value.TInt),
		value.FOpt("price", value.TFloat),
		value.FOpt("tag", value.TString),
		value.F("origin", value.TRecord(value.FOpt("country", value.TString))),
		value.F("items", value.TList(value.TRecord(value.F("q", value.TInt), value.F("r", value.TString)))),
	)
	flatSchema := value.TRecord(
		value.F("k", value.TInt),
		value.FOpt("price", value.TFloat),
		value.FOpt("tag", value.TString),
		value.FOpt("flag", value.TBool),
	)
	// The first hundred needle records hold one rare match; the whole
	// fixture would only slow the fuzzer's input minimization down.
	needle, _ := needleJSON()
	needle = needle[:strings.Index(needle, `{"k":101,`)]
	for _, seed := range []string{
		testData, pushJSON, needle,
		`{"k":1,"price":2.5,"tag":"abc","origin":{"country":"CH","x":[{"y":"}"}]},"items":[{"q":1},{}],"z":{"a":[1,2,{"b":"]"}]}}` + "\n",
		`{"k":1,"k":2,"origin":null,"items":null}` + " \n\n" + `{"tag":"rare-needle","k":7}`,
		// Accepted by neither walk, or by both with the same value ends.
		`{"k":1,"origin":{"u":[}],"country":"x"}}` + "\n", `{"k":1,"origin":{"u":t}}},"country":"x"}}` + "\n", `{"k":1,"u":t`,
		`{"k":9223372036854775808}` + "\n", `{"k":1e3}{"k":-2.5}`, `{"k": 2.7}` + "\n" + `{"k":2.0}`, `{"k":}` + "\n", `[1]`, "",
		// The typed kernel's verdicts, record by record: escapes, explicit
		// nulls and absent keys, bools, then a string in a float, a number in
		// a string and a bad literal.
		`{"k":1,"price":null,"tag":"a\u0041\n\"","flag":true}` + "\n" + `{"k":2.0,"flag":false,"tag":null}` + "\n" + `{}` + "\n" +
			`{"k":3,"price":"x"}` + "\n" + `{"k":4,"tag":7}` + "\n" + `{"k":5,"flag":nul}` + "\n" + `{"k":6,"flag":tru}`,
		// The nested kernel: null, absent and empty lists and empty elements;
		// unknown, repeated and out-of-order keys inside an element and a
		// sub-record; escaped keys; a malformed element field, in the leaf
		// the kernel's every-other-leaf pass skips (r) and in one it reads.
		`{"k":1,"items":null}` + "\n" + `{"k":2}` + "\n" + `{"k":3,"items":[]}` + "\n" + `{"k":4,"items":[{},{"q":5},{}]}`,
		`{"k":1,"items":[{"z":[1,{"q":9}],"q":1,"q":2,"r":"a"},{"r":"b","q":3},{"q":4,"r":"c","q":5,"z":null}],"origin":{"country":"x","country":"y"}}` + "\n",
		`{"\u006b":1,"origin":{"c\u006funtry":"CH"},"items":[{"\u0071":7,"r":"x"},{"\u0072":"y","q":2}]}` + "\n",
		`{"k":1,"items":[{"q":1,"r":5}]}` + "\n" + `{"k":2,"items":[{"q":"x","r":"a"}]}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	preds := []expr.Expr{
		expr.Cmp(expr.OpGe, expr.C("k"), expr.L(2)),
		expr.Cmp(expr.OpLt, expr.C("price"), expr.L(10.5)),
		expr.Cmp(expr.OpEq, expr.C("tag"), expr.L("alpha")),
		expr.And(expr.Cmp(expr.OpEq, expr.C("tag"), expr.L("rare-needle")), expr.Cmp(expr.OpGt, expr.C("k"), expr.L(50))),
	}
	masks := [][]value.Path{{value.ParsePath("price"), value.ParsePath("items.q")}}
	flatMasks := [][]value.Path{{value.ParsePath("price")}}
	path := filepath.Join(f.TempDir(), "fuzz.json")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func(schema *value.Type) plan.Source {
			p, err := New(path, schema)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		rawfiletest.Equivalence(t, open(schema), len(data), preds, masks)
		rawfiletest.Equivalence(t, open(flatSchema), len(data), preds, flatMasks)
	})
}
