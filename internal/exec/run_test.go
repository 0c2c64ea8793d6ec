package exec

import (
	"testing"

	"recache/internal/cache"
	"recache/internal/plan"
	"recache/internal/reference"
	"recache/internal/store"
	"recache/internal/value"
)

// Result holds a fully materialized query result.
type Result struct {
	Schema  *value.Type
	Columns []string
	Rows    [][]value.Value
}

// collectSink materializes the result batches as boxed rows.
type collectSink struct{ rows [][]value.Value }

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

// uncached returns Deps that run a plan without caching: a manager with
// cache.Off admission, whose rewrite is a no-op.
func uncached(needed map[string][]value.Path) Deps {
	return Deps{Manager: cache.NewManager(cache.Config{Admission: cache.Off}), Needed: needed}
}

// refRows evaluates a plan with the reference evaluator.
func refRows(t testing.TB, root plan.Node) [][]value.Value {
	t.Helper()
	rows, err := reference.Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
