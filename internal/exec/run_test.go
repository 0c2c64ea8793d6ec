package exec

import (
	"recache/internal/plan"
	"recache/internal/store"
	"recache/internal/value"
)

// Result holds a fully materialized query result.
type Result struct {
	Schema  *value.Type
	Columns []string
	Rows    [][]value.Value
}

// collectSink materializes either result shape as boxed rows.
type collectSink struct{ rows [][]value.Value }

func (s *collectSink) Row(row []value.Value) error {
	s.rows = append(s.rows, append([]value.Value(nil), row...))
	return nil
}

func (s *collectSink) Batch(cols []*store.Vec, sel []int32) error {
	nc := len(cols)
	chunk := make([]value.Value, len(sel)*nc)
	store.FillRows(cols, sel, chunk, nc)
	for k := range sel {
		s.rows = append(s.rows, chunk[k*nc:(k+1)*nc:(k+1)*nc])
	}
	return nil
}

// Run compiles and executes a plan, returning the materialized result.
func Run(root plan.Node, deps Deps) (*Result, *QueryStats, error) {
	var sink collectSink
	stats, err := RunInto(root, deps, &sink)
	if err != nil {
		return nil, stats, err
	}
	schema := root.OutSchema()
	cols := make([]string, len(schema.Fields))
	for i, f := range schema.Fields {
		cols[i] = f.Name
	}
	return &Result{Schema: schema, Columns: cols, Rows: sink.rows}, stats, nil
}
