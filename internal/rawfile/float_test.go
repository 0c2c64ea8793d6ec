package rawfile

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"recache/internal/rawfile/rawfiletest"
)

// floatSeeds are the edges of the fast path — empty and sign-only input,
// bare points, exponents without digits, the ±22 bound, the 2^53 and
// 19-digit mantissa bounds — and the spellings only strconv reads.
var floatSeeds = []string{
	"", "-", "+", ".", "1.", ".5", "-0", "+0", "-0.0", "0e5", "-.0e-3",
	"1e", "1e+", "1e-", "e5", ".e1", "1.2.3", "1-2", "1e5x", " 1", "1 ",
	"1e22", "1e23", "1e-22", "1e-23", "-1.5e+22", "123456e-28", "0.000001",
	"9007199254740991", "9007199254740992", "9007199254740993",
	"1234567890123456789", "12345678901234567890", "0.1234567890123456789",
	"1234567890123456789e3", "00000000000000000000000000001.5", "1e0000000000000000000022",
	"1_000", "0x1p3", "0X1.8P-2", "inf", "-Inf", "+infinity", "NaN", "nan",
	"4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1.8e308", "1e400", "-1e-400",
	"0.30000000000000004", "100.25", "-42.5", "3.14159",
}

// sameAsStrconv fails unless ParseFloat and strconv.ParseFloat agree on the
// bits of the result, on whether there is an error, and on its text.
func sameAsStrconv(t *testing.T, s string) {
	t.Helper()
	want, werr := strconv.ParseFloat(s, 64)
	got, err := ParseFloat([]byte(s))
	if (err != nil) != (werr != nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("ParseFloat(%q) error %v; strconv says %v", s, err, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ParseFloat(%q) = %v (%#x); strconv says %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestParseFloat(t *testing.T) {
	for _, s := range floatSeeds {
		sameAsStrconv(t, s)
	}
}

// The plain decimals the generators write take the fast path.
func TestParseFloatFastPath(t *testing.T) {
	for _, s := range []string{"0", "-0", "100.25", "-42.5", "1e22", "123456e-22", ".5", "1.", "9007199254740991"} {
		if _, ok := parseFloatFast([]byte(s)); !ok {
			t.Errorf("%q took the fallback", s)
		}
	}
}

// TestParseFloatRandomRenderings holds ParseFloat to strconv over 2 M random
// values (a tenth of that under -short or the race detector), each rendered
// as 'f', 'e' or 'g' at a random precision: uniformly random bits (mostly
// the fallback), and short decimals scaled by a random power of ten (mostly
// the fast path).
func TestParseFloatRandomRenderings(t *testing.T) {
	n := 2_000_000
	if testing.Short() || rawfiletest.Race {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(1))
	fmts := []byte{'f', 'e', 'g'}
	var buf []byte
	for i := 0; i < n; i++ {
		var x float64
		if i%2 == 0 {
			x = math.Float64frombits(rng.Uint64())
		} else {
			x = float64(rng.Int63n(1e9)-5e8) * math.Pow10(rng.Intn(60)-30)
		}
		prec := rng.Intn(22) - 1 // -1 is the shortest round-trip rendering
		buf = strconv.AppendFloat(buf[:0], x, fmts[rng.Intn(3)], prec, 64)
		want, werr := strconv.ParseFloat(string(buf), 64)
		got, err := ParseFloat(buf)
		if (err != nil) != (werr != nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseFloat(%q) = %v, %v; strconv says %v, %v", buf, got, err, want, werr)
		}
	}
}

// The ported power table holds, for each 10^e, the 128 bits below the
// leading one of its binary expansion, rounded down: recompute them exactly.
func TestDetailedPowersOfTen(t *testing.T) {
	if n := detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1; len(detailedPowersOfTen) != n {
		t.Fatalf("%d rows, want %d", len(detailedPowersOfTen), n)
	}
	ten := big.NewInt(10)
	word := new(big.Int).SetUint64(math.MaxUint64)
	for i, row := range detailedPowersOfTen {
		e := detailedPowersOfTenMinExp10 + i
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		switch {
		case e < 0: // 2^k / 10^-e with k putting the quotient in [2^127, 2^128)
			m.Quo(m.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		case p.BitLen() > 128:
			m.Rsh(p, uint(p.BitLen()-128))
		default:
			m.Lsh(p, uint(128-p.BitLen()))
		}
		lo := new(big.Int).And(m, word).Uint64()
		hi := m.Rsh(m, 64).Uint64()
		if row != [2]uint64{lo, hi} {
			t.Fatalf("1e%d: row %#x, want %#x", e, row, [2]uint64{lo, hi})
		}
	}
}

// Plain decimals of up to 19 significant digits outside Clinger's bounds
// are read by Eisel–Lemire, not strconv.
func TestParseFloatEiselLemirePath(t *testing.T) {
	for _, s := range []string{"1e30", "2.5e-30", "0.12345678901234567", "12345678901234567e-300", "9007199254740995", "1.7976931348623157e308"} {
		if _, ok := parseFloatFast([]byte(s)); !ok {
			t.Errorf("%q took the fallback", s)
		}
		sameAsStrconv(t, s)
	}
}

// FuzzParseFloat is the differential target: for any bytes, ParseFloat and
// strconv.ParseFloat agree on the float's bits and on the error.
func FuzzParseFloat(f *testing.F) {
	for _, s := range floatSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sameAsStrconv(t, string(b))
	})
}

// BenchmarkParseFloat reads the fields the generators write: CSV prices
// rendered with two decimals (Clinger's path), JSON floats at full 'g'
// precision (up to 17 digits), and an even mix of the two; and 17-digit
// renderings across 40 decades, which only Eisel–Lemire reads from the
// bytes.
func BenchmarkParseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var csv, json, mix, d17 [][]byte
	for i := 0; i < 1024; i++ {
		c := strconv.AppendFloat(nil, float64(rng.Intn(10_000_000))/100, 'f', 2, 64)
		j := strconv.AppendFloat(nil, rng.Float64()*1000, 'g', -1, 64)
		d := strconv.AppendFloat(nil, rng.Float64()*math.Pow10(rng.Intn(40)-20), 'e', 16, 64)
		csv, json, d17 = append(csv, c), append(json, j), append(d17, d)
		mix = append(mix, c)
		if i%2 == 1 {
			mix[i] = j
		}
	}
	for _, in := range []struct {
		name string
		vals [][]byte
	}{{"csv-2dec", csv}, {"json-17g", json}, {"mix", mix}, {"17-digit", d17}} {
		b.Run(in.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				x, err := ParseFloat(in.vals[i%len(in.vals)])
				if err != nil {
					b.Fatal(err)
				}
				sum += x
			}
			if math.IsNaN(sum) {
				b.Fatal("NaN")
			}
		})
	}
}
