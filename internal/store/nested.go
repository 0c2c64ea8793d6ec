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
