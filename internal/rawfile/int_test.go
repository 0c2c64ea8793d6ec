package rawfile

import (
	"strconv"
	"strings"
	"testing"
)

func TestParseInt(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+7", "42", "-42", "999999999999999999", "1000000000000000000",
		"9223372036854775807", "-9223372036854775808", "0000000000000000000000012",
		"9223372036854775808", "-9223372036854775809", "9223372036854775810",
		"18446744073709551616", "18446744073709551617", "99999999999999999999999",
		"", "-", "+", "1.5", "1e3", "12a", " 1", "--1",
	} {
		want, werr := strconv.ParseInt(s, 10, 64)
		got, err := ParseInt([]byte(s))
		if (err != nil) != (werr != nil) || (err == nil && got != want) {
			t.Errorf("ParseInt(%q) = %d, %v; strconv says %d, %v", s, got, err, want, werr)
		}
		// A plain literal reads the same as a field.
		if !strings.ContainsAny(s, ".eE") {
			fgot, ferr := ParseIntField([]byte(s))
			if (ferr != nil) != (werr != nil) || (ferr == nil && fgot != want) {
				t.Errorf("ParseIntField(%q) = %d, %v; strconv says %d, %v", s, fgot, ferr, want, werr)
			}
		}
	}
}

// The rule for a number with a fraction or exponent in an int field, shared
// by both formats: integral values read exactly, everything else is
// malformed.
func TestParseIntFieldFloatLiterals(t *testing.T) {
	for lit, want := range map[string]int64{
		"2.0": 2, "2.": 2, "2e3": 2000, "2E+3": 2000, "-2.5e3": -2500, "1200e-2": 12, "12.00e0": 12,
		"0.0": 0, "-0.0": 0, ".0": 0, "0e-99999999999": 0, "0.000e99999999999": 0, "0e9223372036854775807": 0,
		"9007199254740993.0": 9007199254740993, "9.223372036854775807e18": 1<<63 - 1,
		"-9223372036854775808.000": -1 << 63, "-0.9223372036854775808e19": -1 << 63, "0001e1": 10,
	} {
		if got, err := ParseIntField([]byte(lit)); err != nil || got != want {
			t.Errorf("ParseIntField(%q) = %d, %v; want %d", lit, got, err, want)
		}
	}
	for _, lit := range []string{
		"2.7", "-2.5", "1e-1", "5e-3", "0.1", "2.0000000000000000001", "1200e-3", "4503599627370496.4",
		"1e19", "-1e300", "9.223372036854775808e18", "1e9223372036854775807", "1.5e-9223372036854775808",
		".", "-.", "e3", ".e3", "1e", "1e+", "1e1.0", "1.2.3", "--1.0", "1.0x", "+",
	} {
		if got, err := ParseIntField([]byte(lit)); err == nil {
			t.Errorf("ParseIntField(%q) = %d, want an error", lit, got)
		}
	}
}
