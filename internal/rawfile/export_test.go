package rawfile

// WrapFormat replaces f's format with wrap of it; call it before f is first
// read.
func WrapFormat(f *File, wrap func(Format) Format) { f.format = wrap(f.format) }

// SegmentMin is the least a segment of a loaded file's map covers.
const SegmentMin = segmentMin

// SegmentCount is how many segments a load maps a file of size bytes in.
func SegmentCount(size int) int { return segmentCount(size) }

// MapSegments maps data in f's format in up to k segments at once, as a
// load does; k = 1 is the serial Format.Map.
func MapSegments(f *File, data []byte, k int) ([]int64, []uint32, error) {
	return mapSegments(f.format, data, f.ntop, k)
}
