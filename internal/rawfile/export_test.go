package rawfile

// WrapFormat replaces f's format with wrap of it; call it before f is first
// read.
func WrapFormat(f *File, wrap func(Format) Format) { f.format = wrap(f.format) }
