// Package csvio is the CSV input plugin: a Proteus-style raw-data access
// path over delimited text files. The first scan of a file tokenizes every
// record and builds a positional map — the byte offset of each record and of
// every field within it (the "skeleton" of the file, §3.1 of the paper).
// Subsequent scans use the map to jump directly to the needed fields and
// parse nothing else, and lazy caches replay just the satisfying records
// through ScanOffsets.
package csvio

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"recache/internal/expr"
	"recache/internal/plan"
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
// tokenizer, the field decoders and the fused first-pass loops.
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

// RecordStart implements rawfile.Format: data begins past the header line
// when the options declare one.
func (f *format) RecordStart(data []byte, from int) int {
	if f.header {
		if h := lineEnd(data, 0) + 1; from < h {
			return min(h, len(data))
		}
	}
	return from
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
// the first scan still touches every byte of the file, but in the
// runtime's vectorized memchr rather than a branchy per-byte loop.
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

func (f *format) errShort(start, nf int) error {
	return fmt.Errorf("csvio: record at offset %d has %d fields, want %d", start, nf, f.nfields)
}

// Tokenize implements rawfile.Format.
func (f *format) Tokenize(data []byte, i int, offs []uint32) (int, error) {
	end := lineEnd(data, i)
	if _, nf := tokenizeLine(data[i:end], f.delim, offs[:0], f.nfields); nf < f.nfields {
		return 0, f.errShort(i, nf)
	}
	return end + 1, nil
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
		beg := start + int(offs[fi])
		v, err := f.parseField(fi, data[beg:f.fieldEnd(data, beg)])
		if err != nil {
			return err
		}
		row[fi] = v
	}
	return nil
}

// AppendColumns implements rawfile.Format: parseField's reading of every
// field, appended to the field's vector instead of boxed.
func (f *format) AppendColumns(data []byte, start int, offs []uint32, dst []*store.Vec) error {
	last := len(offs) - 1
	for fi, v := range dst {
		beg := start + int(offs[fi])
		var b []byte
		if fi < last {
			b = data[beg : start+int(offs[fi+1])-1]
		} else {
			b = data[beg:f.fieldEnd(data, beg)]
		}
		if len(b) == 0 {
			v.AppendVal(value.VNull)
			continue
		}
		switch v.Kind {
		case value.Int:
			n, err := rawfile.ParseIntField(b)
			if err != nil {
				return f.errField(fi, err)
			}
			v.Ints = append(v.Ints, n)
		case value.Float:
			x, err := strconv.ParseFloat(string(b), 64)
			if err != nil {
				return f.errField(fi, err)
			}
			v.Floats = append(v.Floats, x)
		case value.Bool:
			t, err := parseBool(b)
			if err != nil {
				return f.errField(fi, err)
			}
			v.Bools = append(v.Bools, t)
		default:
			v.Strs = append(v.Strs, string(b))
		}
		v.Nulls.Append(false)
	}
	return nil
}

// Needles implements rawfile.Format: a field equal to lit holds its bytes.
func (f *format) Needles(lit []byte) [][]byte { return [][]byte{lit} }

// FirstScan implements rawfile.Format: tokenize every record, filling the
// positional map as it goes.
func (f *format) FirstScan(data []byte, mask []bool, fn plan.ScanFunc) (recStart []int64, fieldOff []uint32, err error) {
	n := f.nfields
	row := make([]value.Value, n)
	rec := value.Value{Kind: value.Record, L: row}
	complete := rawfile.NewCompletion(f, data, mask, row)
	for i := f.RecordStart(data, 0); i < len(data); {
		start := i
		recStart = append(recStart, int64(start))
		end := lineEnd(data, i)
		var nf int
		fieldOff, nf = tokenizeLine(data[start:end], f.delim, fieldOff, n)
		if nf < n {
			return nil, nil, f.errShort(start, nf)
		}
		offs := fieldOff[len(fieldOff)-n:]
		for fi := 0; fi < n; fi++ {
			if mask != nil && !mask[fi] {
				row[fi] = value.VNull
				continue
			}
			beg := start + int(offs[fi])
			fe := end
			switch {
			case fi+1 < n:
				fe = start + int(offs[fi+1]) - 1
			case nf > n:
				// Extra trailing fields: the last mapped field ends at its
				// own delimiter, not the line end.
				fe = f.fieldEnd(data, beg)
			}
			v, err := f.parseField(fi, data[beg:fe])
			if err != nil {
				return nil, nil, err
			}
			row[fi] = v
		}
		if err := fn(rec, int64(start), complete.At(start, offs)); err != nil {
			return nil, nil, err
		}
		i = end + 1
	}
	return recStart, fieldOff, nil
}

// FirstScanPushdown implements rawfile.Format: every record is still
// tokenized (the positional map needs every field offset), but a record
// failing the needle filter or a pushed test skips all field parsing and
// boxing.
func (f *format) FirstScanPushdown(data []byte, tests []expr.ColTest, mask []bool, pre *rawfile.Prescan, fn plan.ScanFunc) (recStart []int64, fieldOff []uint32, skipped int64, err error) {
	n := f.nfields
	row := make([]value.Value, n)
	rec := value.Value{Kind: value.Record, L: row}
	complete := rawfile.NewCompletion(f, data, mask, row)
	for i := f.RecordStart(data, 0); i < len(data); {
		start := i
		recStart = append(recStart, int64(start))
		end := lineEnd(data, i)
		var nf int
		fieldOff, nf = tokenizeLine(data[start:end], f.delim, fieldOff, n)
		if nf < n {
			return nil, nil, skipped, f.errShort(start, nf)
		}
		i = end + 1
		if pre != nil && pre.Next(start) >= end {
			// No occurrence of the equality literal within the record: no
			// field can equal it, so skip without decoding any test column.
			skipped++
			continue
		}
		offs := fieldOff[len(fieldOff)-n:]
		ok, err := f.Test(data, start, offs, tests)
		if err != nil {
			return nil, nil, skipped, err
		}
		if !ok {
			skipped++
			continue
		}
		if err := f.Decode(data, start, offs, mask, false, row); err != nil {
			return nil, nil, skipped, err
		}
		if err := fn(rec, int64(start), complete.At(start, offs)); err != nil {
			return nil, nil, skipped, err
		}
	}
	return recStart, fieldOff, skipped, nil
}

// Test implements rawfile.Format: each tested field is decoded from its raw
// bytes as the test's column kind and run through the fused kernel. An
// empty field is NULL and fails; a malformed field is the same error a
// normal decode of that field would raise.
func (f *format) Test(data []byte, start int, offs []uint32, tests []expr.ColTest) (bool, error) {
	for ti := range tests {
		t := &tests[ti]
		beg := start + int(offs[t.Slot])
		b := data[beg:f.fieldEnd(data, beg)]
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
			// string(b) does not heap-allocate here: ParseFloat's argument is
			// non-escaping, so the conversion stays on the stack.
			x, err := strconv.ParseFloat(string(b), 64)
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

func (f *format) fieldEnd(data []byte, beg int) int {
	i := beg
	for i < len(data) && data[i] != f.delim && data[i] != '\n' {
		i++
	}
	return i
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
		x, err := strconv.ParseFloat(string(b), 64)
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
	if _, err := strconv.ParseFloat(string(b), 64); err == nil {
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
