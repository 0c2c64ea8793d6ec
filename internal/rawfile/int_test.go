package rawfile

import (
	"strconv"
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
	}
}
