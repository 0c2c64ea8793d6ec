package rawfile

import "fmt"

// ParseInt parses a decimal int64 literal ([+-]digits) without allocating.
// A literal outside the int64 range is an error like any other malformed
// field — wrapping it would serve, cache and push down a wrong value.
func ParseInt(b []byte) (int64, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i = 1
	}
	if i >= len(b) {
		return 0, fmt.Errorf("bad int %q", b)
	}
	// 18 digits cannot overflow; only longer literals pay for the checks.
	checked := len(b)-i > 18
	var n uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, fmt.Errorf("bad int %q", b)
		}
		if checked && n > (1<<63)/10 {
			return 0, fmt.Errorf("int %q out of range", b)
		}
		n = n*10 + uint64(c)
	}
	// n <= 2^63/10*10+9 here, so the uint64 itself never wrapped.
	if n > 1<<63 || (!neg && n == 1<<63) {
		return 0, fmt.Errorf("int %q out of range", b)
	}
	if neg {
		return int64(-n), nil
	}
	return int64(n), nil
}
