// Package jsonio is the JSON input plugin: a schema-guided, hand-rolled
// parser over newline-delimited JSON files. Like the CSV plugin it maps a
// file as it is read — the byte offset of each record and of each top-level
// field's value within it — so scans parse only the fields a query needs
// (§3.1 of the paper). Parsing JSON is substantially more expensive than
// CSV, which is precisely the cost heterogeneity ReCache's policies react
// to.
//
// Missing object keys are normalized at ingestion: absent leaves become
// nulls, absent records become records of nulls, absent lists become empty
// lists. Every emitted record is therefore fully shaped by the schema,
// which keeps the cache layouts interchangeable (see DESIGN.md).
package jsonio

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"recache/internal/expr"
	"recache/internal/rawfile"
	"recache/internal/store"
	"recache/internal/value"
)

// absentOff marks a top-level field with no value in a record.
const absentOff = ^uint32(0)

// Provider implements plan.Source for one NDJSON file. Snapshots, the
// positional map and the freshness lifecycle are rawfile.File's; this
// package supplies the JSON tokenizer and the value decoders.
type Provider struct{ *rawfile.File }

// New creates a provider over path with an explicit (possibly nested)
// record schema.
func New(path string, schema *value.Type) (*Provider, error) {
	if schema == nil || schema.Kind != value.Record {
		return nil, fmt.Errorf("jsonio: schema must be a record, got %s", schema)
	}
	if _, err := value.LeafColumns(schema); err != nil {
		return nil, fmt.Errorf("jsonio: %w", err)
	}
	var leaf int
	fm := &format{schema: schema, distinct: distinctNames(schema), root: newLeafNode(schema, &leaf), flat: true}
	for _, fd := range schema.Fields {
		fm.flat = fm.flat && fd.Type.IsPrimitive()
	}
	f, err := rawfile.New(path, schema, fm)
	if err != nil {
		return nil, fmt.Errorf("jsonio: %w", err)
	}
	return &Provider{f}, nil
}

// format is the JSON rawfile.Format: one top-level object per record, one
// value offset (or absentOff) per top-level schema field.
type format struct {
	schema *value.Type
	// distinct: no record type in schema repeats a field name, so a key
	// equal to the field after the previous key's is that name's only field.
	distinct bool
	// root is the schema walk of the typed kernel (AppendColumns); flat:
	// every top-level field is a leaf.
	root leafNode
	flat bool
}

// leafNode is one step of the schema walk AppendColumns decodes a record
// along, numbered like value.LeafColumns: a primitive is leaf column leaf,
// a record holds its fields and a list its element in fields[0], and the
// leaves below any node are [leaf, leaf+nleaf).
type leafNode struct {
	t           *value.Type
	leaf, nleaf int
	fields      []leafNode
}

func newLeafNode(t *value.Type, leaf *int) leafNode {
	n := leafNode{t: t, leaf: *leaf}
	switch t.Kind {
	case value.Record:
		n.fields = make([]leafNode, len(t.Fields))
		for i, fd := range t.Fields {
			n.fields[i] = newLeafNode(fd.Type, leaf)
		}
	case value.List:
		n.fields = []leafNode{newLeafNode(t.Elem, leaf)}
	default:
		*leaf++
	}
	n.nleaf = *leaf - n.leaf
	return n
}

// distinctNames reports whether no record type within t repeats a field
// name.
func distinctNames(t *value.Type) bool {
	switch t.Kind {
	case value.Record:
		for i, fd := range t.Fields {
			for _, g := range t.Fields[:i] {
				if g.Name == fd.Name {
					return false
				}
			}
			if !distinctNames(fd.Type) {
				return false
			}
		}
	case value.List:
		return distinctNames(t.Elem)
	}
	return true
}

// field resolves an object key of record type t to the index of t's field
// of that name, -1 for an unknown key; raw is the key's bytes between the
// quotes. Keys are matched as bytes — only an escaped one is unescaped —
// and, since writers tend to follow the schema's order, the field after
// prev (the previous key's field, -1 at the first key) is tried first.
func (f *format) field(t *value.Type, raw []byte, escaped bool, prev int) int {
	if escaped {
		fi, _ := t.FieldIndex(unescape(raw))
		return fi
	}
	fs := t.Fields
	if next := prev + 1; f.distinct && next < len(fs) && fs[next].Name == string(raw) {
		return next
	}
	for fi := range fs {
		if fs[fi].Name == string(raw) {
			return fi
		}
	}
	return -1
}

// Map implements rawfile.Format: each top-level object is walked just far
// enough to record its fields' value offsets straight into fieldOff; the
// values themselves are skipped, not materialized.
func (f *format) Map(data []byte, from int, recStart []int64, fieldOff []uint32) ([]int64, []uint32, error) {
	n := len(f.schema.Fields)
	for i := skipWS(data, from); i < len(data); {
		fieldOff = append(fieldOff, make([]uint32, n)...)
		end, err := f.parseTop(data, i, fieldOff[len(fieldOff)-n:])
		if err != nil {
			return nil, nil, err
		}
		recStart = append(recStart, int64(i))
		i = skipWS(data, end)
	}
	return recStart, fieldOff, nil
}

// Decode implements rawfile.Format: each wanted field is parsed by a direct
// jump to its value offset; an absent key normalizes like an explicit null.
func (f *format) Decode(data []byte, start int, offs []uint32, mask []bool, rest bool, row []value.Value) error {
	for fi := range offs {
		if mask != nil && mask[fi] == rest {
			if !rest {
				row[fi] = value.VNull
			}
			continue
		}
		ft := f.schema.Fields[fi].Type
		if offs[fi] == absentOff {
			row[fi] = nullFor(ft)
			continue
		}
		v, _, err := f.parseValue(data, start+int(offs[fi]), ft)
		if err != nil {
			return f.errField(fi, err)
		}
		row[fi] = v
	}
	return nil
}

// AppendColumns implements rawfile.Format: parseValue's reading of every
// field, appended to the leaf vectors and list lengths instead of boxed.
// Each top-level field is reached through its mapped offset — a skipped
// primitive is not read at all — and a record or list is walked once below
// it, every value parsed where it stands. A flat schema, whose field i is
// leaf i, takes a loop of its own: the walk's bookkeeping measured 10–15 %
// of a flat kernel's time.
func (f *format) AppendColumns(data []byte, start int, offs []uint32, dst []*store.Vec, lengths []int32) ([]int32, error) {
	if f.flat { // field i is leaf i
		for fi, v := range dst {
			var err error
			switch {
			case v == nil:
			case offs[fi] == absentOff:
				v.AppendVal(value.VNull)
			default:
				_, err = appendValue(data, start+int(offs[fi]), v)
			}
			if err != nil {
				return lengths, f.errField(fi, err)
			}
		}
		return lengths, nil
	}
	w := columnWriter{f: f, data: data, dst: dst, lengths: lengths}
	for fi := range f.root.fields {
		n := &f.root.fields[fi]
		var err error
		switch i := start + int(offs[fi]); {
		case n.fields != nil:
			if offs[fi] == absentOff {
				w.appendNull(n)
			} else {
				_, err = w.appendNode(i, n)
			}
		case dst[n.leaf] == nil:
			// A primitive at its mapped offset: skipping it costs nothing.
		case offs[fi] == absentOff:
			dst[n.leaf].AppendVal(value.VNull)
		default:
			_, err = appendValue(data, i, dst[n.leaf])
		}
		if err != nil {
			return w.lengths, f.errField(fi, err)
		}
	}
	return w.lengths, nil
}

// columnWriter is one AppendColumns call: the bytes it reads and the leaf
// vectors (nil skips a leaf) and list lengths it appends to.
type columnWriter struct {
	f       *format
	data    []byte
	dst     []*store.Vec
	lengths []int32
}

// appendNode appends the JSON value at i, read as n, and returns the index
// just past it. A null appends nullFor's value of n; a leaf whose vector is
// nil is skipped unparsed.
func (w *columnWriter) appendNode(i int, n *leafNode) (int, error) {
	data := w.data
	i = skipWS(data, i)
	if i >= len(data) {
		return i, fmt.Errorf("unexpected end of input")
	}
	switch n.t.Kind {
	case value.Record, value.List:
		if data[i] == 'n' {
			end, err := skipLiteral(data, i, "null")
			if err == nil {
				w.appendNull(n)
			}
			return end, err
		}
		if n.t.Kind == value.List {
			return w.appendArray(i, n)
		}
		return w.appendObject(i, n)
	}
	if v := w.dst[n.leaf]; v != nil {
		return appendValue(data, i, v)
	}
	return skipValue(data, i)
}

// appendArray appends a list's elements, then its length.
func (w *columnWriter) appendArray(i int, n *leafNode) (int, error) {
	data := w.data
	if data[i] != '[' {
		return i, fmt.Errorf("expected '[' at %d", i)
	}
	i++
	var count int32
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			return i, fmt.Errorf("unterminated array")
		}
		if data[i] == ']' {
			break
		}
		if count > 0 {
			if data[i] != ',' {
				return i, fmt.Errorf("expected ',' at %d", i)
			}
			i++
		}
		var err error
		if i, err = w.appendNode(i, &n.fields[0]); err != nil {
			return i, err
		}
		count++
	}
	w.lengths = append(w.lengths, count)
	return i + 1, nil
}

// appendObject appends a record's fields in schema order, parsing each value
// where it stands while the keys follow that order: a field skipped on the
// way is absent (null), an unknown key is skipped. A key that goes back —
// out of order, or repeated — hands the object to appendByKeys.
func (w *columnWriter) appendObject(i int, n *leafNode) (int, error) {
	data := w.data
	if data[i] != '{' {
		return i, fmt.Errorf("expected '{' at %d", i)
	}
	obj := i
	next, prev := 0, -1 // n.fields[:next] are appended
	for i, first := i+1, true; ; first = false {
		key, escaped, vi, end, err := objectKey(data, i, first)
		if err != nil || end {
			for ; err == nil && next < len(n.fields); next++ {
				w.appendNull(&n.fields[next])
			}
			return vi, err
		}
		fi := w.f.field(n.t, key, escaped, prev)
		switch {
		case fi < 0:
			if i, err = skipValue(data, vi); err != nil {
				return i, err
			}
			continue
		case fi < next:
			return w.appendByKeys(obj, n, next)
		}
		for ; next < fi; next++ {
			w.appendNull(&n.fields[next])
		}
		if i, err = w.appendNode(vi, &n.fields[fi]); err != nil {
			return i, err
		}
		next, prev = fi+1, fi
	}
}

// appendByKeys appends the object at obj whose keys left schema order, once
// the first done fields appendObject appended are dropped. A pass over the
// keys finds each field's last value — parsing every value on the way, as
// parseObject does, and dropping it again — and the fields are then
// appended in schema order from there.
func (w *columnWriter) appendByKeys(obj int, n *leafNode, done int) (int, error) {
	for k := range n.fields[:done] {
		w.truncate(&n.fields[k])
	}
	at := make([]int, len(n.fields)) // 1 + the index of each field's last value; 0 while absent
	prev := -1
	for i, first := obj+1, true; ; first = false {
		key, escaped, vi, end, err := objectKey(w.data, i, first)
		if err != nil {
			return vi, err
		}
		if end {
			for fi := range n.fields {
				if at[fi] == 0 {
					w.appendNull(&n.fields[fi])
				} else if _, err := w.appendNode(at[fi]-1, &n.fields[fi]); err != nil {
					return vi, err
				}
			}
			return vi, nil
		}
		fi := w.f.field(n.t, key, escaped, prev)
		if fi < 0 {
			if i, err = skipValue(w.data, vi); err != nil {
				return i, err
			}
			continue
		}
		if i, err = w.appendNode(vi, &n.fields[fi]); err != nil {
			return i, err
		}
		w.truncate(&n.fields[fi])
		at[fi], prev = vi+1, fi
	}
}

// appendNull appends nullFor's value of n: a null per leaf, an empty list.
func (w *columnWriter) appendNull(n *leafNode) {
	switch n.t.Kind {
	case value.Record:
		for k := range n.fields {
			w.appendNull(&n.fields[k])
		}
	case value.List:
		w.lengths = append(w.lengths, 0)
	default:
		if v := w.dst[n.leaf]; v != nil {
			v.AppendVal(value.VNull)
		}
	}
}

// truncate drops what one appendNode of n appended: an entry per leaf below
// it, or — for a list — its length and that many entries per leaf below its
// element.
func (w *columnWriter) truncate(n *leafNode) {
	drop := 1
	switch n.t.Kind {
	case value.Record:
		for k := range n.fields {
			w.truncate(&n.fields[k])
		}
		return
	case value.List:
		last := len(w.lengths) - 1
		drop, w.lengths = int(w.lengths[last]), w.lengths[:last]
	}
	for _, v := range w.dst[n.leaf : n.leaf+n.nleaf] {
		if v != nil {
			v.Truncate(v.Len() - drop)
		}
	}
}

// appendValue appends the primitive JSON value at i, read as v's kind, and
// returns the index just past it.
func appendValue(data []byte, i int, v *store.Vec) (end int, err error) {
	if i = skipWS(data, i); i >= len(data) {
		return i, fmt.Errorf("unexpected end of input")
	}
	if data[i] == 'n' {
		if end, err = skipLiteral(data, i, "null"); err == nil {
			v.AppendVal(value.VNull)
		}
		return end, err
	}
	switch v.Kind {
	case value.Int:
		var n int64
		if n, end, err = parseInt(data, i); err == nil {
			v.Ints = append(v.Ints, n)
		}
	case value.Float:
		var x float64
		if x, end, err = parseFloat(data, i); err == nil {
			v.Floats = append(v.Floats, x)
		}
	case value.String:
		var s string
		if s, end, err = parseString(data, i); err == nil {
			v.Strs = append(v.Strs, s)
		}
	case value.Bool:
		var t bool
		if t, end, err = parseBool(data, i); err == nil {
			v.Bools = append(v.Bools, t)
		}
	default:
		err = fmt.Errorf("unsupported type %s", v.Kind)
	}
	if err == nil {
		v.Nulls.Append(false)
	}
	return end, err
}

func (f *format) errField(fi int, err error) error {
	return fmt.Errorf("jsonio: field %q: %w", f.schema.Fields[fi].Name, err)
}

// Needles implements rawfile.Format: a string equal to lit appears either
// in its quoted raw form or with a backslash — an escaped string (\uXXXX
// and friends) can denote the literal without containing its bytes, so any
// record holding an escape stays a candidate.
func (f *format) Needles(lit []byte) [][]byte {
	quoted := make([]byte, 0, len(lit)+2)
	quoted = append(append(append(quoted, '"'), lit...), '"')
	return [][]byte{quoted, {'\\'}}
}

// Test implements rawfile.Format: an absent key or a null literal fails the
// test — the same SQL semantics the row filter applies.
func (f *format) Test(data []byte, start int, offs []uint32, tests []expr.ColTest) (bool, error) {
	for ti := range tests {
		t := &tests[ti]
		if offs[t.Slot] == absentOff {
			return false, nil
		}
		ok, err := testValue(data, t, start+int(offs[t.Slot]))
		if err != nil {
			return false, f.errField(t.Slot, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// testValue decodes the JSON value at i as the test's column kind and runs
// the fused kernel. A null literal fails the test; malformed values raise
// the same errors parseValue would.
func testValue(data []byte, t *expr.ColTest, i int) (bool, error) {
	i = skipWS(data, i)
	if i >= len(data) {
		return false, fmt.Errorf("unexpected end of input")
	}
	if data[i] == 'n' {
		_, err := skipLiteral(data, i, "null")
		return false, err
	}
	switch t.Kind {
	case value.Int:
		n, _, err := parseInt(data, i)
		return err == nil && t.TestInt(n), err
	case value.Float:
		x, _, err := parseFloat(data, i)
		return err == nil && t.TestFloat(x), err
	default:
		raw, escaped, _, err := rawString(data, i)
		if err != nil {
			return false, err
		}
		if !escaped {
			return t.TestStrBytes(raw), nil
		}
		return t.TestStr(unescape(raw)), nil
	}
}

// parseTop walks one top-level object starting at i, recording each schema
// field's value offset (relative to i) into offs and skipping every value,
// and returns the index just past the object.
func (f *format) parseTop(data []byte, i int, offs []uint32) (int, error) {
	recStart := i
	for fi := range offs {
		offs[fi] = absentOff
	}
	i = skipWS(data, i)
	if i >= len(data) || data[i] != '{' {
		return i, fmt.Errorf("jsonio: expected '{' at offset %d", i)
	}
	prev := -1
	for i, first := i+1, true; ; first = false {
		key, escaped, vi, end, err := objectKey(data, i, first)
		if err != nil {
			return vi, fmt.Errorf("jsonio: %w", err)
		}
		if end {
			return vi, nil
		}
		if fi := f.field(f.schema, key, escaped, prev); fi >= 0 {
			offs[fi] = uint32(vi - recStart)
			prev = fi
		}
		if i, err = skipValue(data, vi); err != nil {
			return i, err
		}
	}
}

// objectKey moves from i — just past an object's opening brace, or past the
// value of its previous member — to its next key, checking the comma
// between members: it returns the key's raw bytes and the index of its
// value, or end with the index just past the closing brace.
func objectKey(data []byte, i int, first bool) (key []byte, escaped bool, next int, end bool, err error) {
	i = skipWS(data, i)
	if i >= len(data) {
		return nil, false, i, false, fmt.Errorf("unterminated object")
	}
	if data[i] == '}' {
		return nil, false, i + 1, true, nil
	}
	if !first {
		if data[i] != ',' {
			return nil, false, i, false, fmt.Errorf("expected ',' at %d", i)
		}
		i = skipWS(data, i+1)
	}
	if key, escaped, i, err = rawString(data, i); err != nil {
		return nil, false, i, false, err
	}
	i = skipWS(data, i)
	if i >= len(data) || data[i] != ':' {
		return nil, false, i, false, fmt.Errorf("expected ':' at %d", i)
	}
	return key, escaped, skipWS(data, i+1), false, nil
}

// nullFor returns the normalized null value for a type: records become
// records of nulls, lists become empty lists, leaves become VNull.
func nullFor(t *value.Type) value.Value {
	switch t.Kind {
	case value.Record:
		fields := make([]value.Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = nullFor(f.Type)
		}
		return value.VRecord(fields...)
	case value.List:
		return value.VList()
	default:
		return value.VNull
	}
}

// parseValue parses a JSON value at i according to the expected type t.
func (f *format) parseValue(data []byte, i int, t *value.Type) (value.Value, int, error) {
	i = skipWS(data, i)
	if i >= len(data) {
		return value.VNull, i, fmt.Errorf("unexpected end of input")
	}
	if data[i] == 'n' {
		ni, err := skipLiteral(data, i, "null")
		if err != nil {
			return value.VNull, i, err
		}
		return nullFor(t), ni, nil
	}
	switch t.Kind {
	case value.Record:
		return f.parseObject(data, i, t)
	case value.List:
		return f.parseArray(data, i, t)
	case value.String:
		s, ni, err := parseString(data, i)
		if err != nil {
			return value.VNull, i, err
		}
		return value.VString(s), ni, nil
	case value.Bool:
		b, ni, err := parseBool(data, i)
		if err != nil {
			return value.VNull, i, err
		}
		return value.VBool(b), ni, nil
	case value.Int:
		n, ni, err := parseInt(data, i)
		if err != nil {
			return value.VNull, i, err
		}
		return value.VInt(n), ni, nil
	case value.Float:
		x, ni, err := parseFloat(data, i)
		if err != nil {
			return value.VNull, i, err
		}
		return value.VFloat(x), ni, nil
	}
	return value.VNull, i, fmt.Errorf("unsupported type %s", t)
}

// parseInt decodes the JSON number at i as an int64 under the rule both
// formats share (rawfile.ParseIntField): an integral value reads exactly, a
// fractional or out-of-range one is malformed.
func parseInt(data []byte, i int) (int64, int, error) {
	ni := scanNumber(data, i)
	if ni == i {
		return 0, i, fmt.Errorf("bad number at %d", i)
	}
	n, err := rawfile.ParseIntField(data[i:ni])
	if err != nil {
		return 0, i, fmt.Errorf("bad int at %d: %w", i, err)
	}
	return n, ni, nil
}

func parseBool(data []byte, i int) (bool, int, error) {
	switch {
	case hasLiteral(data, i, "true"):
		return true, i + 4, nil
	case hasLiteral(data, i, "false"):
		return false, i + 5, nil
	}
	return false, i, fmt.Errorf("bad bool at %d", i)
}

func parseFloat(data []byte, i int) (float64, int, error) {
	ni := scanNumber(data, i)
	if ni == i {
		return 0, i, fmt.Errorf("bad number at %d", i)
	}
	x, err := rawfile.ParseFloat(data[i:ni])
	if err != nil {
		return 0, i, fmt.Errorf("bad float at %d: %w", i, err)
	}
	return x, ni, nil
}

func (f *format) parseObject(data []byte, i int, t *value.Type) (value.Value, int, error) {
	if data[i] != '{' {
		return value.VNull, i, fmt.Errorf("expected '{' at %d", i)
	}
	fields := make([]value.Value, len(t.Fields))
	seen := make([]bool, len(t.Fields))
	prev := -1
	for i, first := i+1, true; ; first = false {
		key, escaped, vi, end, err := objectKey(data, i, first)
		if err != nil {
			return value.VNull, vi, err
		}
		if end {
			for fi := range fields {
				if !seen[fi] {
					fields[fi] = nullFor(t.Fields[fi].Type)
				}
			}
			return value.VRecord(fields...), vi, nil
		}
		fi := f.field(t, key, escaped, prev)
		if fi < 0 {
			if i, err = skipValue(data, vi); err != nil {
				return value.VNull, i, err
			}
			continue
		}
		v, ni, err := f.parseValue(data, vi, t.Fields[fi].Type)
		if err != nil {
			return value.VNull, vi, err
		}
		fields[fi], seen[fi] = v, true
		prev, i = fi, ni
	}
}

func (f *format) parseArray(data []byte, i int, t *value.Type) (value.Value, int, error) {
	if data[i] != '[' {
		return value.VNull, i, fmt.Errorf("expected '[' at %d", i)
	}
	i++
	var elems []value.Value
	first := true
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			return value.VNull, i, fmt.Errorf("unterminated array")
		}
		if data[i] == ']' {
			i++
			break
		}
		if !first {
			if data[i] != ',' {
				return value.VNull, i, fmt.Errorf("expected ',' at %d", i)
			}
			i = skipWS(data, i+1)
		}
		first = false
		v, ni, err := f.parseValue(data, i, t.Elem)
		if err != nil {
			return value.VNull, i, err
		}
		elems = append(elems, v)
		i = ni
	}
	return value.VList(elems...), i, nil
}

// parseString parses a JSON string (handling escapes) returning its value.
func parseString(data []byte, i int) (string, int, error) {
	raw, escaped, ni, err := rawString(data, i)
	if err != nil {
		return "", ni, err
	}
	if !escaped {
		return string(raw), ni, nil
	}
	return unescape(raw), ni, nil
}

// rawString locates a JSON string's content bytes without materializing it:
// raw is the text between the quotes (escapes unresolved), escaped reports
// whether any escape sequences are present. Pushdown string tests compare
// raw directly when escape-free, allocating nothing.
func rawString(data []byte, i int) (raw []byte, escaped bool, next int, err error) {
	if i >= len(data) || data[i] != '"' {
		return nil, false, i, fmt.Errorf("expected '\"' at %d", i)
	}
	i++
	beg := i
	// memchr to the closing quote; only a backslash in between forces the
	// slow escape-pair walk. The common escape-free string costs one
	// vectorized scan instead of a per-byte loop.
	for i < len(data) {
		j := bytes.IndexByte(data[i:], '"')
		if j < 0 {
			break
		}
		k := i + j
		if b := bytes.IndexByte(data[i:k], '\\'); b >= 0 {
			escaped = true
			i += b + 2 // skip the escape pair; it may hide a quote
			continue
		}
		return data[beg:k], escaped, k + 1, nil
	}
	return nil, false, len(data), fmt.Errorf("unterminated string")
}

// unescape resolves the escapes of a string's raw bytes as encoding/json
// does: a \uXXXX surrogate pair is one code point and a lone surrogate is
// U+FFFD. A malformed \u or an unknown escape keeps the escaped byte.
func unescape(b []byte) string {
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != '\\' || i+1 >= len(b) {
			out = append(out, c)
			continue
		}
		i++
		switch b[i] {
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case 'r':
			out = append(out, '\r')
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'u':
			r, ok := hex4(b[i+1:])
			if !ok {
				out = append(out, 'u')
				continue
			}
			i += 4
			if utf16.IsSurrogate(r) {
				// The other half of a pair is the next escape; anything else
				// leaves this one alone.
				lo := rune(-1)
				if i+2 < len(b) && b[i+1] == '\\' && b[i+2] == 'u' {
					lo, _ = hex4(b[i+3:])
				}
				if r = utf16.DecodeRune(r, lo); r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			out = append(out, b[i])
		}
	}
	return string(out)
}

// hex4 decodes the four hex digits b starts with.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return -1, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// skipValue advances past any JSON value without materializing it. It must
// find the same end as the schema-guided parsers for every value those
// accept — Map skips the values Decode later parses — so brackets of either
// kind nest, and literals are checked, not assumed.
func skipValue(data []byte, i int) (int, error) {
	i = skipWS(data, i)
	if i >= len(data) {
		return i, fmt.Errorf("unexpected end of input")
	}
	switch open := data[i]; open {
	case '"':
		_, _, ni, err := rawString(data, i)
		return ni, err
	case '{', '[':
		depth := 0
		for ; i < len(data); i++ {
			switch data[i] {
			case '"':
				_, _, ni, err := rawString(data, i)
				if err != nil {
					return i, err
				}
				i = ni - 1
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1, nil
				}
			}
		}
		return i, fmt.Errorf("unterminated %c", open)
	case 't':
		return skipLiteral(data, i, "true")
	case 'f':
		return skipLiteral(data, i, "false")
	case 'n':
		return skipLiteral(data, i, "null")
	default:
		ni := scanNumber(data, i)
		if ni == i {
			return i, fmt.Errorf("bad value at %d", i)
		}
		return ni, nil
	}
}

func hasLiteral(data []byte, i int, lit string) bool {
	return i+len(lit) <= len(data) && string(data[i:i+len(lit)]) == lit
}

func skipLiteral(data []byte, i int, lit string) (int, error) {
	if hasLiteral(data, i, lit) {
		return i + len(lit), nil
	}
	return i, fmt.Errorf("bad literal at %d", i)
}

func scanNumber(data []byte, i int) int {
	for i < len(data) {
		c := data[i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			i++
			continue
		}
		break
	}
	return i
}

func skipWS(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// WriteRecord appends one record as a JSON line to buf, following the
// schema's field order; null leaves are omitted (exercising the optional-
// field path on re-read). It is used by the data generators.
func WriteRecord(buf []byte, rec value.Value, schema *value.Type) []byte {
	buf = writeValue(buf, rec, schema)
	return append(buf, '\n')
}

func writeValue(buf []byte, v value.Value, t *value.Type) []byte {
	switch t.Kind {
	case value.Record:
		buf = append(buf, '{')
		first := true
		for i, f := range t.Fields {
			var fv value.Value
			if i < len(v.L) {
				fv = v.L[i]
			}
			if fv.Kind == value.Null {
				continue // omit null fields entirely
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = appendString(buf, f.Name)
			buf = append(buf, ':')
			buf = writeValue(buf, fv, f.Type)
		}
		return append(buf, '}')
	case value.List:
		buf = append(buf, '[')
		for i := range v.L {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = writeValue(buf, v.L[i], t.Elem)
		}
		return append(buf, ']')
	case value.String:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return appendString(buf, v.S)
	case value.Int:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return strconv.AppendInt(buf, v.I, 10)
	case value.Float:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	case value.Bool:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return strconv.AppendBool(buf, v.B)
	}
	return append(buf, "null"...)
}

// appendString appends s as a JSON string: the escapes JSON has for quote,
// backslash and the control bytes, other UTF-8 as is, and each byte of
// invalid UTF-8 as U+FFFD — what encoding/json writes, less its HTML-safe
// escapes.
func appendString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			buf = append(buf, c)
			i++
			continue
		}
		switch c {
		case '"', '\\':
			buf = append(buf, '\\', c)
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		case '\b':
			buf = append(buf, '\\', 'b')
		case '\f':
			buf = append(buf, '\\', 'f')
		default:
			if c < 0x20 {
				buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
				break
			}
			// An invalid byte decodes as U+FFFD, size 1.
			r, size := utf8.DecodeRuneInString(s[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
			continue
		}
		i++
	}
	return append(buf, '"')
}
