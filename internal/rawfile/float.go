package rawfile

import "strconv"

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ParseFloat parses a float64 field of either format. A plain decimal
// ([+-]digits[.digits][e[+-]digits]) whose significant digits fit in 19 is
// read straight from the bytes: when they make a value below 2^53 scaled by
// at most 10^±22, by Clinger's fast path (both operands are exact, so one
// multiply or divide rounds correctly), otherwise by Eisel–Lemire
// (eisel_lemire.go), which rounds correctly or declines. What it declines —
// and more digits, NaN/Inf spellings, hex floats, malformed input — goes to
// strconv.ParseFloat, so values and errors are exactly strconv's.
func ParseFloat(b []byte) (float64, error) {
	if x, ok := parseFloatFast(b); ok {
		return x, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseFloatFast is ParseFloat's path from the bytes; ok is false when the
// input is not a plain decimal of at most 19 significant digits or
// Eisel–Lemire declines it.
func parseFloatFast(b []byte) (x float64, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i = 1
	}
	// Leading zeros are not significant.
	lead := i
	for i < len(b) && b[i] == '0' {
		i++
	}
	var mant uint64
	sig := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	nd, exp := i-sig, 0 // significant digits read; decimal exponent of the last
	digits := i > lead
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			// Zeros between the point and the first significant digit only
			// scale the value.
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		nd += i - sig
		exp = frac - i
		digits = digits || i > frac
	}
	if !digits || nd > 19 { // past 19 digits mant may have wrapped
		return 0, false
	}
	if i < len(b) {
		if b[i] != 'e' && b[i] != 'E' {
			return 0, false
		}
		i++
		eneg := false
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			eneg = b[i] == '-'
			i++
		}
		if i == len(b) {
			return 0, false
		}
		e := 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				return 0, false
			}
			if e < 1e4 { // past that strconv decides
				e = e*10 + int(c)
			}
		}
		if e >= 1e4 {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if mant >= 1<<53 || exp < -22 || exp > 22 {
		return eiselLemire64(mant, exp, neg)
	}
	x = float64(mant)
	if neg {
		x = -x
	}
	if exp >= 0 {
		return x * pow10[exp], true
	}
	return x / pow10[-exp], true
}
