package store

import (
	"recache/internal/value"
)

// colIndexByName maps dotted leaf names to column indexes.
func colIndexByName(cols []value.LeafColumn) map[string]int {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		m[c.Name()] = i
	}
	return m
}

// leafPaths is a schema's leaf-column paths resolved to field indexes once
// per Striper, so that Append reaches a value without comparing field
// names.
type leafPaths struct {
	// flat: leaf ci is top-level field ci (idx[ci] is just {ci}), so a
	// record is one row of its own fields.
	flat bool
	// list is the index path of the repeated field (nil without one) and
	// idx[ci] that of leaf ci: from the record for a non-repeated leaf,
	// from the list element for a repeated one.
	list []int
	idx  [][]int
}

func resolveLeafPaths(schema *value.Type, cols []value.LeafColumn) leafPaths {
	lp := leafPaths{flat: len(cols) == len(schema.Fields), idx: make([][]int, len(cols))}
	listPath := value.RepeatedField(schema)
	elemT := schema
	if listPath != nil {
		lp.list = listPath.Indexes(schema)
		for _, name := range listPath {
			_, elemT = elemT.FieldIndex(name)
		}
		elemT = elemT.Elem
	}
	for ci, c := range cols {
		if c.Repeated {
			lp.idx[ci] = c.Path[len(listPath):].Indexes(elemT)
		} else {
			lp.idx[ci] = c.Path.Indexes(schema)
		}
		lp.flat = lp.flat && !c.Repeated && len(c.Path) == 1
	}
	return lp
}

// elems returns the elements of rec's repeated field; ok is false when the
// schema has none. A null or absent list has no elements.
func (lp *leafPaths) elems(rec value.Value) (elems []value.Value, ok bool) {
	if lp.list == nil {
		return nil, false
	}
	if lv := value.GetAt(rec, lp.list); lv.Kind == value.List {
		elems = lv.L
	}
	return elems, true
}

// asmNode is one step of the schema walk ScanNested rebuilds records with,
// resolved once per scan: a Record node holds its fields, a List node holds
// the element's node in fields[0], and any other kind is a leaf whose col
// indexes the store's leaf columns.
type asmNode struct {
	kind   value.Kind
	col    int
	fields []asmNode
}

// assembler rebuilds nested records from column vectors. flatVecs[ci] holds
// the value of non-repeated leaf ci at a record's flat row; repVecs[ci]
// holds the values of repeated leaf ci, one entry per list element.
type assembler struct {
	root     asmNode
	flatVecs []*vec
	repVecs  []*vec
}

// newAssembler resolves the schema walk — which mirrors value.LeafColumns:
// records recurse, the (single) list field expands its elements — to leaf
// column indexes. A list of primitives has no field below it: its leaf
// column is the list path itself.
func newAssembler(schema *value.Type, cols []value.LeafColumn, flatVecs, repVecs []*vec) *assembler {
	colIdx := colIndexByName(cols)
	var walk func(t *value.Type, path value.Path) asmNode
	walk = func(t *value.Type, path value.Path) asmNode {
		switch t.Kind {
		case value.Record:
			n := asmNode{kind: value.Record, fields: make([]asmNode, len(t.Fields))}
			for i, f := range t.Fields {
				n.fields[i] = walk(f.Type, append(path[:len(path):len(path)], f.Name))
			}
			return n
		case value.List:
			return asmNode{kind: value.List, fields: []asmNode{walk(t.Elem, path)}}
		}
		return asmNode{kind: t.Kind, col: colIdx[path.String()]}
	}
	return &assembler{root: walk(schema, nil), flatVecs: flatVecs, repVecs: repVecs}
}

// record rebuilds one record: flatRow addresses its non-repeated leaves,
// repBase its first list element, card is the number of elements of its
// repeated field (0 allowed).
func (a *assembler) record(flatRow, repBase, card int) value.Value {
	return a.build(&a.root, flatRow, repBase, card, -1)
}

// build assembles the value under n; elem is the list element being built,
// or -1 outside the list.
func (a *assembler) build(n *asmNode, flatRow, repBase, card, elem int) value.Value {
	switch n.kind {
	case value.Record:
		fields := make([]value.Value, len(n.fields))
		for i := range n.fields {
			fields[i] = a.build(&n.fields[i], flatRow, repBase, card, elem)
		}
		return value.VRecord(fields...)
	case value.List:
		elems := make([]value.Value, card)
		for e := range elems {
			elems[e] = a.build(&n.fields[0], flatRow, repBase, card, e)
		}
		return value.VList(elems...)
	}
	if elem < 0 {
		return a.flatVecs[n.col].Get(flatRow)
	}
	return a.repVecs[n.col].Get(repBase + elem)
}
