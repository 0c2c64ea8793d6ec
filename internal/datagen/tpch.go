// Package datagen generates the four dataset families of the paper's
// evaluation at configurable scale: TPC-H-like tables (CSV and JSON), the
// nested orderLineitems JSON file built by joining orders with their
// lineitems, a synthetic nested dataset with controlled list cardinality
// (Fig. 5/6), a Symantec-like spam-log dataset (JSON + companion CSV), and
// a Yelp-like dataset (business/user/review JSON). All generators are
// deterministic given a seed; see DESIGN.md for the substitution rationale.
package datagen

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"recache/internal/jsonio"
	"recache/internal/value"
)

// Schema DSL strings for the TPC-H-like tables (recache.ParseSchema).
const (
	LineitemSchema = "l_orderkey int, l_partkey int, l_suppkey int, l_linenumber int, " +
		"l_quantity int, l_extendedprice float, l_discount float, l_tax float, l_shipdate int"
	OrdersSchema = "o_orderkey int, o_custkey int, o_totalprice float, o_orderdate int, " +
		"o_shippriority int, o_orderpriority string"
	CustomerSchema = "c_custkey int, c_nationkey int, c_acctbal float, c_mktsegment string"
	PartsuppSchema = "ps_partkey int, ps_suppkey int, ps_availqty int, ps_supplycost float"
	PartSchema     = "p_partkey int, p_size int, p_retailprice float, p_brand string, p_type string"

	// OrderLineitemsSchema is the nested file: each order carries its
	// lineitems as a list of records (≈4 per order, as in the paper).
	OrderLineitemsSchema = "o_orderkey int, o_custkey int, o_totalprice float, o_orderdate int, " +
		"o_shippriority int, o_orderpriority string, " +
		"lineitems list(l_partkey int, l_suppkey int, l_linenumber int, l_quantity int, " +
		"l_extendedprice float, l_discount float, l_tax float, l_shipdate int)"
)

// TPCHPaths locates the generated TPC-H-like files.
type TPCHPaths struct {
	Lineitem, Orders, Customer, Partsupp, Part string // CSV, '|'-delimited
	LineitemJSON, OrdersJSON                   string // flat JSON conversions
	OrderLineitems                             string // nested JSON
}

// Cardinalities per unit scale factor, preserving TPC-H's ratios
// (SF1 = 6M lineitems): lineitem:orders:partsupp:part:customer =
// 6M : 1.5M : 800K : 200K : 150K.
const (
	ordersPerSF   = 1_500_000
	partsuppPerSF = 800_000
	partPerSF     = 200_000
	customerPerSF = 150_000
)

var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var brands = []string{"Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"}
var types = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}

// TPCH writes the five tables as CSV, flat-JSON conversions of lineitem and
// orders, and the nested orderLineitems file into dir.
func TPCH(dir string, sf float64, seed int64) (*TPCHPaths, error) {
	r := rand.New(rand.NewSource(seed))
	nOrders := scaled(ordersPerSF, sf)
	nCustomer := scaled(customerPerSF, sf)
	nPart := scaled(partPerSF, sf)
	nPartsupp := scaled(partsuppPerSF, sf)

	p := &TPCHPaths{
		Lineitem:       filepath.Join(dir, "lineitem.csv"),
		Orders:         filepath.Join(dir, "orders.csv"),
		Customer:       filepath.Join(dir, "customer.csv"),
		Partsupp:       filepath.Join(dir, "partsupp.csv"),
		Part:           filepath.Join(dir, "part.csv"),
		LineitemJSON:   filepath.Join(dir, "lineitem.json"),
		OrdersJSON:     filepath.Join(dir, "orders.json"),
		OrderLineitems: filepath.Join(dir, "orderlineitems.json"),
	}

	// Orders + lineitems are generated together so the nested file agrees
	// with the flat ones. TPC-H attaches 1..7 lineitems per order (avg 4).
	liSchema, err := parseDSL(LineitemSchema)
	if err != nil {
		return nil, err
	}
	ordSchema, err := parseDSL(OrdersSchema)
	if err != nil {
		return nil, err
	}
	olSchema, err := parseDSL(OrderLineitemsSchema)
	if err != nil {
		return nil, err
	}

	liCSV, err := newCSVWriter(p.Lineitem)
	if err != nil {
		return nil, err
	}
	ordCSV, err := newCSVWriter(p.Orders)
	if err != nil {
		return nil, err
	}
	liJSON, err := newJSONWriter(p.LineitemJSON, liSchema)
	if err != nil {
		return nil, err
	}
	ordJSON, err := newJSONWriter(p.OrdersJSON, ordSchema)
	if err != nil {
		return nil, err
	}
	olJSON, err := newJSONWriter(p.OrderLineitems, olSchema)
	if err != nil {
		return nil, err
	}

	for ok := 1; ok <= nOrders; ok++ {
		custkey := 1 + r.Intn(max(nCustomer, 1))
		totalprice := 100 + r.Float64()*500000
		odate := 19920101 + r.Intn(70000)
		prio := priorities[r.Intn(len(priorities))]
		shipprio := r.Intn(2)
		ordCSV.row(
			itoa(ok), itoa(custkey), ftoa(totalprice), itoa(odate),
			itoa(shipprio), prio)
		ordRec := value.VRecord(value.VInt(int64(ok)), value.VInt(int64(custkey)),
			value.VFloat(totalprice), value.VInt(int64(odate)),
			value.VInt(int64(shipprio)), value.VString(prio))
		ordJSON.rec(ordRec)

		nli := 1 + r.Intn(7)
		items := make([]value.Value, nli)
		for ln := 1; ln <= nli; ln++ {
			partkey := 1 + r.Intn(max(nPart, 1))
			suppkey := 1 + r.Intn(max(nPart/20, 1))
			qty := 1 + r.Intn(50)
			price := 900 + r.Float64()*100000
			disc := float64(r.Intn(11)) / 100
			tax := float64(r.Intn(9)) / 100
			sdate := odate + r.Intn(120)
			liCSV.row(
				itoa(ok), itoa(partkey), itoa(suppkey), itoa(ln), itoa(qty),
				ftoa(price), ftoa(disc), ftoa(tax), itoa(sdate))
			liRec := value.VRecord(value.VInt(int64(ok)), value.VInt(int64(partkey)),
				value.VInt(int64(suppkey)), value.VInt(int64(ln)), value.VInt(int64(qty)),
				value.VFloat(price), value.VFloat(disc), value.VFloat(tax),
				value.VInt(int64(sdate)))
			liJSON.rec(liRec)
			items[ln-1] = value.VRecord(value.VInt(int64(partkey)),
				value.VInt(int64(suppkey)), value.VInt(int64(ln)), value.VInt(int64(qty)),
				value.VFloat(price), value.VFloat(disc), value.VFloat(tax),
				value.VInt(int64(sdate)))
		}
		olJSON.rec(value.VRecord(value.VInt(int64(ok)), value.VInt(int64(custkey)),
			value.VFloat(totalprice), value.VInt(int64(odate)),
			value.VInt(int64(shipprio)), value.VString(prio), value.VList(items...)))
	}
	if err := firstErr(liCSV.close(), ordCSV.close(), liJSON.close(),
		ordJSON.close(), olJSON.close()); err != nil {
		return nil, err
	}

	custCSV, err := newCSVWriter(p.Customer)
	if err != nil {
		return nil, err
	}
	for ck := 1; ck <= nCustomer; ck++ {
		custCSV.row(itoa(ck), itoa(r.Intn(25)), ftoa(-999+r.Float64()*10000),
			segments[r.Intn(len(segments))])
	}
	if err := custCSV.close(); err != nil {
		return nil, err
	}

	partCSV, err := newCSVWriter(p.Part)
	if err != nil {
		return nil, err
	}
	for pk := 1; pk <= nPart; pk++ {
		partCSV.row(itoa(pk), itoa(1+r.Intn(50)), ftoa(900+r.Float64()*1200),
			brands[r.Intn(len(brands))], types[r.Intn(len(types))])
	}
	if err := partCSV.close(); err != nil {
		return nil, err
	}

	psCSV, err := newCSVWriter(p.Partsupp)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPartsupp; i++ {
		psCSV.row(itoa(1+r.Intn(max(nPart, 1))), itoa(1+r.Intn(max(nPart/20, 1))),
			itoa(1+r.Intn(9999)), ftoa(1+r.Float64()*1000))
	}
	if err := psCSV.close(); err != nil {
		return nil, err
	}
	return p, nil
}

func scaled(perSF int, sf float64) int {
	n := int(float64(perSF) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// --- writers ---

type csvWriter struct {
	f *os.File
	w *bufio.Writer
}

func newCSVWriter(path string) (*csvWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &csvWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (c *csvWriter) row(fields ...string) {
	for i, fl := range fields {
		if i > 0 {
			c.w.WriteByte('|')
		}
		c.w.WriteString(fl)
	}
	c.w.WriteByte('\n')
}

func (c *csvWriter) close() error {
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

type jsonWriter struct {
	f      *os.File
	w      *bufio.Writer
	schema *value.Type
	buf    []byte
}

func newJSONWriter(path string, schema *value.Type) (*jsonWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &jsonWriter{f: f, w: bufio.NewWriterSize(f, 1<<16), schema: schema}, nil
}

func (j *jsonWriter) rec(rec value.Value) {
	j.buf = jsonio.WriteRecord(j.buf[:0], rec, j.schema)
	j.w.Write(j.buf)
}

func (j *jsonWriter) close() error {
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

func itoa(n int) string { return strconv.Itoa(n) }

func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', 2, 64) }

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// parseDSL is a minimal copy of the root package's schema-DSL parsing for
// in-package use (the root package depends on internal/, not vice versa).
// It supports exactly the constructs the schema constants above use.
func parseDSL(src string) (*value.Type, error) {
	p := &dslParser{src: src}
	t, err := p.fieldList()
	if err != nil {
		return nil, err
	}
	if _, err := value.LeafColumns(t); err != nil {
		return nil, err
	}
	return t, nil
}

type dslParser struct {
	src string
	pos int
}

func (p *dslParser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\n' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *dslParser) ident() string {
	p.ws()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

func (p *dslParser) accept(c byte) bool {
	p.ws()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *dslParser) fieldList() (*value.Type, error) {
	var fields []value.Field
	for {
		name := p.ident()
		if name == "" {
			return nil, fmt.Errorf("datagen: bad schema at %d", p.pos)
		}
		kw := p.ident()
		var t *value.Type
		switch kw {
		case "int":
			t = value.TInt
		case "float":
			t = value.TFloat
		case "string":
			t = value.TString
		case "bool":
			t = value.TBool
		case "record", "list":
			if !p.accept('(') {
				return nil, fmt.Errorf("datagen: expected ( at %d", p.pos)
			}
			// list(string) shorthand for primitive lists.
			save := p.pos
			prim := p.ident()
			if kw == "list" && (prim == "int" || prim == "float" || prim == "string" || prim == "bool") && p.accept(')') {
				switch prim {
				case "int":
					t = value.TList(value.TInt)
				case "float":
					t = value.TList(value.TFloat)
				case "string":
					t = value.TList(value.TString)
				case "bool":
					t = value.TList(value.TBool)
				}
			} else {
				p.pos = save
				inner, err := p.fieldList()
				if err != nil {
					return nil, err
				}
				if !p.accept(')') {
					return nil, fmt.Errorf("datagen: expected ) at %d", p.pos)
				}
				if kw == "list" {
					t = value.TList(inner)
				} else {
					t = inner
				}
			}
		default:
			return nil, fmt.Errorf("datagen: unknown type %q", kw)
		}
		opt := p.accept('?')
		fields = append(fields, value.Field{Name: name, Type: t, Optional: opt})
		if !p.accept(',') {
			break
		}
	}
	return value.TRecord(fields...), nil
}
