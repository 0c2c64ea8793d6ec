package rawfile

import (
	"bytes"
	"fmt"
)

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

// ParseIntField reads an int-typed field of either format. Besides the
// literals ParseInt takes, it accepts a number written with a fraction or
// an exponent when its value is integral (2.0, 2e3, 1200e-2); a fractional
// value (2.7) is malformed like any other bad field, never truncated or
// rounded. The reading is exact: decimal digits are shifted, no float is
// involved, so 9007199254740993.0 is that integer and 2.0000000000000000001
// is an error.
func ParseIntField(b []byte) (int64, error) {
	n, err := ParseInt(b)
	if err == nil || !bytes.ContainsAny(b, ".eE") {
		return n, err
	}
	// [+-] digits [. digits] [e [+-] digits], at least one mantissa digit.
	i := 0
	if b[0] == '-' || b[0] == '+' {
		i = 1
	}
	lit := append(make([]byte, 0, len(b)+19), b[:i]...) // sign, then the integer's digits
	sign := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		lit = append(lit, b[i])
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		for i++; i < len(b) && b[i]-'0' <= 9; i++ {
			lit = append(lit, b[i])
			frac++
		}
	}
	var exp int64
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if exp, err = ParseInt(b[i+1:]); err != nil {
			return 0, fmt.Errorf("bad int %q", b)
		}
		i = len(b)
		// Past ±2^31 the exponent decides the outcome by itself (no literal
		// has that many digits); clamping keeps shift clear of overflow.
		exp = max(min(exp, 1<<31), -1<<31)
	}
	if i != len(b) || len(lit) == sign {
		return 0, fmt.Errorf("bad int %q", b)
	}
	// value = digits × 10^shift: a negative shift drops trailing digits,
	// which must be zeros (running out of digits leaves the implicit
	// leading zeros); a positive one appends zeros.
	shift := exp - int64(frac)
	for ; shift < 0 && len(lit) > sign; shift++ {
		if lit[len(lit)-1] != '0' {
			return 0, fmt.Errorf("int field holds fractional number %q", b)
		}
		lit = lit[:len(lit)-1]
	}
	digits := bytes.TrimLeft(lit[sign:], "0")
	if len(digits) == 0 {
		return 0, nil
	}
	if shift > 0 {
		if int64(len(digits))+shift > 19 {
			return 0, fmt.Errorf("int %q out of range", b)
		}
		lit = append(lit, "0000000000000000000"[:shift]...)
	}
	if n, err = ParseInt(lit); err != nil {
		return 0, fmt.Errorf("int %q out of range", b)
	}
	return n, nil
}
