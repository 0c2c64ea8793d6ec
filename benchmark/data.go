package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"recache"
	"recache/internal/datagen"
)

// Table names every workload registers the generated files under.
const (
	tLineitem     = "lineitem"      // lineitem.csv
	tLineitemJSON = "lineitem_json" // lineitem.json (flat JSON)
	tOrders       = "orders"        // orders.csv
	tCustomer     = "customer"      // customer.csv
	tNested       = "orderlineitems"
)

// table is one registered raw file.
type table struct {
	name, path, schema string
	json               bool
}

// dataset is one generated data directory.
type dataset struct {
	dir    string
	paths  *datagen.TPCHPaths
	tables []table
	// lineitemBase is lineitem.csv's generated size; churn truncates the
	// file back to it before every round.
	lineitemBase int64
	// maxOrderKey is the largest generated o_orderkey; appended rows
	// continue from it.
	maxOrderKey int
}

// genData writes the TPC-H-like files for (sf, seed) into dir. The engine
// under test only ever sees these files and SQL strings.
func genData(dir string, sf float64, seed int64) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := datagen.TPCH(dir, sf, seed)
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	st, err := os.Stat(p.Lineitem)
	if err != nil {
		return nil, err
	}
	d := &dataset{dir: dir, paths: p, lineitemBase: st.Size(), maxOrderKey: int(1_500_000 * sf)}
	d.tables = []table{
		{tLineitem, p.Lineitem, datagen.LineitemSchema, false},
		{tLineitemJSON, p.LineitemJSON, datagen.LineitemSchema, true},
		{tOrders, p.Orders, datagen.OrdersSchema, false},
		{tCustomer, p.Customer, datagen.CustomerSchema, false},
		{tNested, p.OrderLineitems, datagen.OrderLineitemsSchema, true},
	}
	return d, nil
}

// table finds a table by its registered name (nil: unknown).
func (d *dataset) table(name string) *table {
	for i := range d.tables {
		if d.tables[i].name == name {
			return &d.tables[i]
		}
	}
	return nil
}

// close makes a dataset a set-up result; its files go with its directory.
func (d *dataset) close() {}

// register registers every table of the dataset with the engine.
func (d *dataset) register(eng *recache.Engine) error {
	for _, t := range d.tables {
		var err error
		if t.json {
			err = eng.RegisterJSON(t.name, t.path, t.schema)
		} else {
			err = eng.RegisterCSV(t.name, t.path, t.schema, '|')
		}
		if err != nil {
			return fmt.Errorf("register %s: %w", t.name, err)
		}
	}
	return nil
}

// open opens an engine over the dataset.
func (d *dataset) open(cfg recache.Config) (*recache.Engine, error) {
	eng, err := recache.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.register(eng); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// recordCounts counts the records (lines) of every table's file.
func (d *dataset) recordCounts() (map[string]int64, error) {
	out := make(map[string]int64, len(d.tables))
	for _, t := range d.tables {
		b, err := os.ReadFile(t.path)
		if err != nil {
			return nil, err
		}
		out[t.name] = int64(bytes.Count(b, []byte{'\n'}))
	}
	return out, nil
}

// workloadHash fingerprints a workload's inputs: the generated files'
// bytes and the SQL sequence. The same --seed/--sf prints the same hash.
func (d *dataset) workloadHash(sqls []string) (string, error) {
	h := sha256.New()
	for _, t := range d.tables {
		b, err := os.ReadFile(t.path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(t.path), len(b))
		h.Write(b)
	}
	h.Write([]byte(strings.Join(sqls, "\n")))
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// appendBatch appends batch number n (rows new lineitem rows, a pure
// function of seed and n) to lineitem.csv, as a writer beside the engine
// would.
func (d *dataset) appendBatch(seed int64, n, rows int) error {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	var b bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%.2f|%.2f|%.2f|%d\n",
			d.maxOrderKey+1+n*rows+i, 1+r.Intn(2000), 1+r.Intn(100), 1+i%7, 1+r.Intn(50),
			900+r.Float64()*100000, float64(r.Intn(11))/100, float64(r.Intn(9))/100,
			19920101+r.Intn(70120))
	}
	f, err := os.OpenFile(d.paths.Lineitem, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(b.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
