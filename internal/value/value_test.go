package value

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func orderSchema() *Type {
	return TRecord(
		F("o_orderkey", TInt),
		F("o_totalprice", TFloat),
		F("o_comment", TString),
		F("lineitems", TList(TRecord(
			F("l_quantity", TInt),
			F("l_extendedprice", TFloat),
		))),
	)
}

func TestTypeStringAndEqual(t *testing.T) {
	s := orderSchema()
	want := "record{o_orderkey:int,o_totalprice:float,o_comment:string," +
		"lineitems:list<record{l_quantity:int,l_extendedprice:float}>}"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !s.Equal(orderSchema()) {
		t.Error("structurally equal schemas reported unequal")
	}
	other := TRecord(F("x", TInt))
	if s.Equal(other) {
		t.Error("different schemas reported equal")
	}
	if s.Equal(nil) {
		t.Error("Equal(nil) should be false")
	}
}

func TestFieldIndex(t *testing.T) {
	s := orderSchema()
	i, ft := s.FieldIndex("o_totalprice")
	if i != 1 || ft.Kind != Float {
		t.Errorf("FieldIndex(o_totalprice) = (%d,%v)", i, ft)
	}
	if i, _ := s.FieldIndex("nope"); i != -1 {
		t.Errorf("FieldIndex(nope) = %d, want -1", i)
	}
	if i, _ := TInt.FieldIndex("x"); i != -1 {
		t.Errorf("FieldIndex on non-record = %d, want -1", i)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{VInt(1), VInt(2), -1},
		{VInt(2), VInt(2), 0},
		{VInt(3), VInt(2), 1},
		{VInt(2), VFloat(2.5), -1},
		{VFloat(2.5), VInt(2), 1},
		{VFloat(1.5), VFloat(1.5), 0},
		{VNull, VInt(0), -1},
		{VInt(0), VNull, 1},
		{VNull, VNull, 0},
		{VString("a"), VString("b"), -1},
		{VString("b"), VString("b"), 0},
		{VBool(false), VBool(true), -1},
		{VList(VInt(1)), VList(VInt(1), VInt(2)), -1},
		{VList(VInt(2)), VList(VInt(1), VInt(9)), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	gen := func(seed int64) Value {
		r := rand.New(rand.NewSource(seed))
		return randomValue(r, 2)
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(5)
	if depth > 0 && r.Intn(3) == 0 {
		k = 5 + r.Intn(2)
	}
	switch k {
	case 0:
		return VNull
	case 1:
		return VBool(r.Intn(2) == 0)
	case 2:
		return VInt(int64(r.Intn(100)))
	case 3:
		return VFloat(float64(r.Intn(100)) / 4)
	case 4:
		return VString(string(rune('a' + r.Intn(26))))
	case 5:
		n := r.Intn(3)
		l := make([]Value, n)
		for i := range l {
			l[i] = randomValue(r, depth-1)
		}
		return VList(l...)
	default:
		n := 1 + r.Intn(3)
		l := make([]Value, n)
		for i := range l {
			l[i] = randomValue(r, depth-1)
		}
		return VRecord(l...)
	}
}

func TestPathResolve(t *testing.T) {
	s := orderSchema()
	leaf, rep, err := (Path{"lineitems", "l_quantity"}).Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Kind != Int || !rep {
		t.Errorf("Resolve(lineitems.l_quantity) = (%v, repeated=%v)", leaf, rep)
	}
	leaf, rep, err = (Path{"o_totalprice"}).Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Kind != Float || rep {
		t.Errorf("Resolve(o_totalprice) = (%v, repeated=%v)", leaf, rep)
	}
	if _, _, err := (Path{"nope"}).Resolve(s); err == nil {
		t.Error("Resolve(nope) should fail")
	}
	if _, _, err := (Path{"o_orderkey", "deeper"}).Resolve(s); err == nil || !strings.Contains(err.Error(), "is not a record") {
		t.Errorf("Resolve through a primitive should fail: %v", err)
	}
	// Lookup agrees with Resolve, without building an error.
	for _, p := range []Path{{"lineitems", "l_quantity"}, {"o_totalprice"}, {"nope"}, {"o_orderkey", "deeper"}, {"lineitems", "nope"}} {
		leaf, rep, err := p.Resolve(s)
		gleaf, grep, ok := p.Lookup(s)
		if gleaf != leaf || grep != rep || ok != (err == nil) {
			t.Errorf("Lookup(%v) = (%v, %v, %v), Resolve = (%v, %v, %v)", p, gleaf, grep, ok, leaf, rep, err)
		}
		if n := testing.AllocsPerRun(10, func() { p.Lookup(s) }); n != 0 {
			t.Errorf("Lookup(%v) allocates %.0f objects", p, n)
		}
	}
}

func TestLeafColumns(t *testing.T) {
	s := orderSchema()
	cols, err := LeafColumns(s)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"o_orderkey", "o_totalprice", "o_comment",
		"lineitems.l_quantity", "lineitems.l_extendedprice"}
	if len(cols) != len(wantNames) {
		t.Fatalf("got %d cols, want %d", len(cols), len(wantNames))
	}
	for i, c := range cols {
		if c.Name() != wantNames[i] {
			t.Errorf("col %d = %q, want %q", i, c.Name(), wantNames[i])
		}
	}
	if cols[0].Repeated {
		t.Errorf("o_orderkey should be non-repeated: %+v", cols[0])
	}
	if !cols[3].Repeated || cols[3].MaxDef != 1 {
		t.Errorf("lineitems.l_quantity levels wrong: %+v", cols[3])
	}
}

func TestLeafColumnsOptional(t *testing.T) {
	s := TRecord(
		F("a", TInt),
		FOpt("b", TString),
		FOpt("sub", TRecord(F("x", TInt), FOpt("y", TFloat))),
	)
	cols, err := LeafColumns(s)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]LeafColumn{}
	for _, c := range cols {
		byName[c.Name()] = c
	}
	if byName["a"].MaxDef != 0 {
		t.Errorf("a MaxDef = %d, want 0", byName["a"].MaxDef)
	}
	if byName["b"].MaxDef != 1 {
		t.Errorf("b MaxDef = %d, want 1", byName["b"].MaxDef)
	}
	if byName["sub.x"].MaxDef != 1 {
		t.Errorf("sub.x MaxDef = %d, want 1", byName["sub.x"].MaxDef)
	}
	if byName["sub.y"].MaxDef != 2 {
		t.Errorf("sub.y MaxDef = %d, want 2", byName["sub.y"].MaxDef)
	}
}

func TestLeafColumnsRejectsNestedLists(t *testing.T) {
	s := TRecord(F("outer", TList(TRecord(F("inner", TList(TRecord(F("x", TInt))))))))
	if _, err := LeafColumns(s); err == nil {
		t.Error("nested repeated fields should be rejected")
	}
	s2 := TRecord(F("ll", TList(TList(TInt))))
	if _, err := LeafColumns(s2); err == nil {
		t.Error("list-of-list should be rejected")
	}
}

func TestRepeatedField(t *testing.T) {
	if p := RepeatedField(orderSchema()); p.String() != "lineitems" {
		t.Errorf("RepeatedField = %q", p)
	}
	flat := TRecord(F("a", TInt))
	if p := RepeatedField(flat); p != nil {
		t.Errorf("RepeatedField(flat) = %q, want nil", p)
	}
}

func sampleOrder() Value {
	return VRecord(
		VInt(7),
		VFloat(1234.5),
		VString("fast"),
		VList(
			VRecord(VInt(3), VFloat(10.0)),
			VRecord(VInt(5), VFloat(20.5)),
		),
	)
}

func TestGet(t *testing.T) {
	s := orderSchema()
	v := sampleOrder()
	if got := Get(v, s, Path{"o_orderkey"}); got.I != 7 {
		t.Errorf("Get(o_orderkey) = %v", got)
	}
	if got := Get(v, s, Path{"o_comment"}); got.S != "fast" {
		t.Errorf("Get(o_comment) = %v", got)
	}
	if got := Get(v, s, Path{"lineitems"}); got.Kind != List || len(got.L) != 2 {
		t.Errorf("Get(lineitems) = %v", got)
	}
	if got := Get(v, s, Path{"missing"}); !got.IsNull() {
		t.Errorf("Get(missing) = %v, want null", got)
	}
}

func TestFlattenRecord(t *testing.T) {
	s := orderSchema()
	cols, err := LeafColumns(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := FlattenRecord(sampleOrder(), s, cols)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	want := [][]Value{
		{VInt(7), VFloat(1234.5), VString("fast"), VInt(3), VFloat(10.0)},
		{VInt(7), VFloat(1234.5), VString("fast"), VInt(5), VFloat(20.5)},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("FlattenRecord = %v, want %v", rows, want)
	}

	// Empty list ⇒ zero rows (inner-unnest semantics).
	empty := VRecord(VInt(1), VFloat(0), VString(""), VList())
	if rows := FlattenRecord(empty, s, cols); len(rows) != 0 {
		t.Errorf("empty list flattened to %d rows, want 0", len(rows))
	}

	// Flat schema ⇒ exactly one row.
	flat := TRecord(F("a", TInt), F("b", TString))
	fcols, _ := LeafColumns(flat)
	rows = FlattenRecord(VRecord(VInt(1), VString("x")), flat, fcols)
	if len(rows) != 1 || rows[0][0].I != 1 || rows[0][1].S != "x" {
		t.Errorf("flat FlattenRecord = %v", rows)
	}
}

func TestFlattenSchema(t *testing.T) {
	fs, cols, err := FlattenSchema(orderSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Fields) != 5 || len(cols) != 5 {
		t.Fatalf("flatten schema fields = %d", len(fs.Fields))
	}
	if fs.Fields[3].Name != "lineitems.l_quantity" || !fs.Fields[3].Optional {
		t.Errorf("field 3 = %+v", fs.Fields[3])
	}
}

func TestRecordCardinality(t *testing.T) {
	s := orderSchema()
	if c := RecordCardinality(sampleOrder(), s); c != 2 {
		t.Errorf("cardinality = %d, want 2", c)
	}
	flat := TRecord(F("a", TInt))
	if c := RecordCardinality(VRecord(VInt(1)), flat); c != 1 {
		t.Errorf("flat cardinality = %d, want 1", c)
	}
}

func TestValueStringAndTruthy(t *testing.T) {
	v := VRecord(VInt(1), VList(VString("a"), VNull), VBool(true))
	want := `{1,["a",null],true}`
	if got := v.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if VNull.Truthy() || !VInt(3).Truthy() || VString("").Truthy() || !VFloat(0.1).Truthy() {
		t.Error("Truthy misbehaves")
	}
}

func TestShallowSize(t *testing.T) {
	if VInt(1).ShallowSize() != 16 {
		t.Errorf("int size = %d", VInt(1).ShallowSize())
	}
	if VString("abcd").ShallowSize() != 20 {
		t.Errorf("string size = %d", VString("abcd").ShallowSize())
	}
	lst := VList(VInt(1), VInt(2))
	if lst.ShallowSize() != 16+32 {
		t.Errorf("list size = %d", lst.ShallowSize())
	}
}
