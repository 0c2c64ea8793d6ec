// Package csvio is the CSV input plugin: a Proteus-style raw-data access
// path over delimited text files. Reading a file tokenizes every record into
// a positional map — the byte offset of each record and of every field
// within it (the "skeleton" of the file, §3.1 of the paper). Scans use the
// map to jump directly to the needed fields and parse nothing else, and lazy
// caches replay just the satisfying records through ScanOffsets.
package csvio

import (
	"bytes"
	"fmt"
	"os"

	"recache/internal/expr"
	"recache/internal/rawfile"
	"recache/internal/store"
	"recache/internal/value"
)

// Options configures a CSV provider.
type Options struct {
	// Delim is the field delimiter; the default is '|' (TPC-H style).
	Delim byte
	// HasHeader skips the first line (and InferSchema uses it for names).
	HasHeader bool
}

func (o Options) delim() byte {
	if o.Delim == 0 {
		return '|'
	}
	return o.Delim
}

// Provider implements plan.ScanProvider — and the refresh, epoch-pinned and
// pushdown extensions — for one CSV file. Snapshots, the positional map and
// the freshness lifecycle are rawfile.File's; this package supplies the CSV
// tokenizer and the field decoders.
type Provider struct{ *rawfile.File }

// New creates a provider over path with an explicit flat record schema.
func New(path string, schema *value.Type, opts Options) (*Provider, error) {
	if schema == nil || schema.Kind != value.Record {
		return nil, fmt.Errorf("csvio: schema must be a record, got %s", schema)
	}
	for _, f := range schema.Fields {
		if !f.Type.IsPrimitive() {
			return nil, fmt.Errorf("csvio: field %q is not primitive", f.Name)
		}
	}
	f, err := rawfile.New(path, schema, &format{
		schema:  schema,
		delim:   opts.delim(),
		header:  opts.HasHeader,
		nfields: len(schema.Fields),
	})
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	return &Provider{f}, nil
}

// format is the CSV rawfile.Format: one record per line, one field offset
// per schema field.
type format struct {
	schema  *value.Type
	delim   byte
	header  bool
	nfields int
}

// Map implements rawfile.Format: one line per record, past the header line
// when the options declare one, with every field offset appended straight
// into fieldOff.
func (f *format) Map(data []byte, from int, recStart []int64, fieldOff []uint32) ([]int64, []uint32, error) {
	if f.header {
		if h := lineEnd(data, 0) + 1; from < h {
			from = min(h, len(data))
		}
	}
	for i := from; i < len(data); {
		end := lineEnd(data, i)
		var nf int
		if fieldOff, nf = tokenizeLine(data[i:end], f.delim, fieldOff, f.nfields); nf < f.nfields {
			return nil, nil, fmt.Errorf("csvio: record at offset %d has %d fields, want %d", i, nf, f.nfields)
		}
		recStart = append(recStart, int64(i))
		i = end + 1
	}
	return recStart, fieldOff, nil
}

// lineEnd returns the offset of the newline terminating the record that
// starts at i (len(data) for an unterminated last record), found with one
// memchr-backed prescan instead of a byte-at-a-time loop.
func lineEnd(data []byte, i int) int {
	if j := bytes.IndexByte(data[i:], '\n'); j >= 0 {
		return i + j
	}
	return len(data)
}

// tokenizeLine appends the first max field offsets (relative to the record
// start) of line to fieldOff and returns the extended slice plus the total
// field count. bytes.IndexByte does the delimiter search word-at-a-time —
// mapping still touches every byte of the file, but in the runtime's
// vectorized memchr rather than a branchy per-byte loop.
func tokenizeLine(line []byte, delim byte, fieldOff []uint32, max int) ([]uint32, int) {
	fi, off := 0, 0
	for {
		if fi < max {
			fieldOff = append(fieldOff, uint32(off))
		}
		fi++
		j := bytes.IndexByte(line[off:], delim)
		if j < 0 {
			return fieldOff, fi
		}
		off += j + 1
	}
}

// Decode implements rawfile.Format.
func (f *format) Decode(data []byte, start int, offs []uint32, mask []bool, rest bool, row []value.Value) error {
	for fi := range offs {
		if mask != nil && mask[fi] == rest {
			if !rest {
				row[fi] = value.VNull
			}
			continue
		}
		v, err := f.parseField(fi, f.field(data, start, offs, fi))
		if err != nil {
			return err
		}
		row[fi] = v
	}
	return nil
}

// AppendColumns implements rawfile.Format: parseField's reading of every
// field, appended to the field's vector instead of boxed. A CSV record is
// flat, so field i is leaf column i and there is no list length.
func (f *format) AppendColumns(data []byte, start int, offs []uint32, dst []*store.Vec, lengths []int32) ([]int32, error) {
	for fi, v := range dst {
		if v == nil {
			continue
		}
		b := f.field(data, start, offs, fi)
		if len(b) == 0 {
			v.AppendVal(value.VNull)
			continue
		}
		switch v.Kind {
		case value.Int:
			n, err := rawfile.ParseIntField(b)
			if err != nil {
				return lengths, f.errField(fi, err)
			}
			v.Ints = append(v.Ints, n)
		case value.Float:
			x, err := rawfile.ParseFloat(b)
			if err != nil {
				return lengths, f.errField(fi, err)
			}
			v.Floats = append(v.Floats, x)
		case value.Bool:
			t, err := parseBool(b)
			if err != nil {
				return lengths, f.errField(fi, err)
			}
			v.Bools = append(v.Bools, t)
		default:
			v.Strs = append(v.Strs, string(b))
		}
		v.Nulls.Append(false)
	}
	return lengths, nil
}

// Needles implements rawfile.Format: a field equal to lit holds its bytes.
func (f *format) Needles(lit []byte) [][]byte { return [][]byte{lit} }

// Test implements rawfile.Format: each tested field is decoded from its raw
// bytes as the test's column kind and run through the fused kernel. An
// empty field is NULL and fails; a malformed field is the same error a
// normal decode of that field would raise.
func (f *format) Test(data []byte, start int, offs []uint32, tests []expr.ColTest) (bool, error) {
	for ti := range tests {
		t := &tests[ti]
		b := f.field(data, start, offs, t.Slot)
		if len(b) == 0 {
			return false, nil
		}
		var ok bool
		switch t.Kind {
		case value.Int:
			n, err := rawfile.ParseIntField(b)
			if err != nil {
				return false, f.errField(t.Slot, err)
			}
			ok = t.TestInt(n)
		case value.Float:
			x, err := rawfile.ParseFloat(b)
			if err != nil {
				return false, f.errField(t.Slot, err)
			}
			ok = t.TestFloat(x)
		default:
			ok = t.TestStrBytes(b)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func (f *format) errField(fi int, err error) error {
	return fmt.Errorf("csvio: field %q: %w", f.schema.Fields[fi].Name, err)
}

// field returns the bytes of field fi of the record at start: up to the
// delimiter before the next field, or for the last mapped field up to its
// own delimiter (extra trailing fields are ignored) or the line end.
func (f *format) field(data []byte, start int, offs []uint32, fi int) []byte {
	beg := start + int(offs[fi])
	if fi+1 < len(offs) {
		return data[beg : start+int(offs[fi+1])-1]
	}
	i := beg
	for i < len(data) && data[i] != f.delim && data[i] != '\n' {
		i++
	}
	return data[beg:i]
}

func (f *format) parseField(fi int, b []byte) (value.Value, error) {
	if len(b) == 0 {
		return value.VNull, nil
	}
	switch f.schema.Fields[fi].Type.Kind {
	case value.Int:
		n, err := rawfile.ParseIntField(b)
		if err != nil {
			return value.VNull, f.errField(fi, err)
		}
		return value.VInt(n), nil
	case value.Float:
		x, err := rawfile.ParseFloat(b)
		if err != nil {
			return value.VNull, f.errField(fi, err)
		}
		return value.VFloat(x), nil
	case value.Bool:
		t, err := parseBool(b)
		if err != nil {
			return value.VNull, f.errField(fi, err)
		}
		return value.VBool(t), nil
	default:
		return value.VString(string(b)), nil
	}
}

func parseBool(b []byte) (bool, error) {
	switch string(b) {
	case "true", "1", "t":
		return true, nil
	case "false", "0", "f":
		return false, nil
	}
	return false, fmt.Errorf("bad bool %q", b)
}

// InferSchema derives a flat record schema from the file: names from the
// header when present (else c0, c1, ...), types from the first data row
// (int, then float, then string).
func InferSchema(path string, opts Options) (*value.Type, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	delim := opts.delim()
	lines := splitN(b, '\n', 2+boolToInt(opts.HasHeader))
	if len(lines) == 0 {
		return nil, fmt.Errorf("csvio: empty file %s", path)
	}
	var names []string
	dataLine := lines[0]
	if opts.HasHeader {
		for _, f := range splitN(lines[0], delim, -1) {
			names = append(names, string(f))
		}
		if len(lines) < 2 {
			return nil, fmt.Errorf("csvio: header but no data in %s", path)
		}
		dataLine = lines[1]
	}
	fields := splitN(dataLine, delim, -1)
	if names == nil {
		for i := range fields {
			names = append(names, fmt.Sprintf("c%d", i))
		}
	}
	if len(names) != len(fields) {
		return nil, fmt.Errorf("csvio: header has %d fields, data has %d", len(names), len(fields))
	}
	out := make([]value.Field, len(fields))
	for i, f := range fields {
		out[i] = value.F(names[i], inferType(f))
	}
	return value.TRecord(out...), nil
}

func inferType(b []byte) *value.Type {
	if _, err := rawfile.ParseInt(b); err == nil {
		return value.TInt
	}
	if _, err := rawfile.ParseFloat(b); err == nil {
		return value.TFloat
	}
	return value.TString
}

func splitN(b []byte, sep byte, n int) [][]byte {
	var out [][]byte
	beg := 0
	for i := 0; i < len(b); i++ {
		if b[i] == sep {
			out = append(out, b[beg:i])
			beg = i + 1
			if n > 0 && len(out) == n-1 {
				break
			}
		}
	}
	if beg < len(b) {
		tail := b[beg:]
		if len(tail) > 0 && tail[len(tail)-1] == '\r' {
			tail = tail[:len(tail)-1]
		}
		if len(tail) > 0 {
			out = append(out, tail)
		}
	}
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
