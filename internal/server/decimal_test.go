package server

import (
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"megh/internal/workload"
)

// TestPow10Table recomputes every row of pow10 from math/big: 10^e times the
// power of two that leaves it exactly 128 bits, truncated — the rows
// strconv's eisel_lemire.go holds for 1e-22…1e0.
func TestPow10Table(t *testing.T) {
	if len(pow10) != 1-minPow10 {
		t.Fatalf("%d rows, want one for each of 1e%d…1e0", len(pow10), minPow10)
	}
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for k, row := range pow10 {
		e := minPow10 + k
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
		var q big.Int
		for s := uint(127); q.BitLen() < 128; s++ {
			q.Div(new(big.Int).Lsh(big.NewInt(1), s), den)
		}
		want := [2]uint64{new(big.Int).Rsh(&q, 64).Uint64(), new(big.Int).And(&q, mask).Uint64()}
		if row != want {
			t.Errorf("1e%d: row {%#x, %#x}, want {%#x, %#x}", e, row[0], row[1], want[0], want[1])
		}
	}
}

// TestTraceUtilizationsTakeTheTable pins the table's coverage: every
// utilization the append encoder writes for a week of the two generators'
// traces, 200 VMs each, is a plain decimal that decimalToFloat converts
// without strconv — a change that sent them back to strconv would otherwise
// show in a benchmark only — and number() reads each back to the value sent.
func TestTraceUtilizationsTakeTheTable(t *testing.T) {
	planetlab, err := workload.GeneratePlanetLab(workload.DefaultPlanetLabConfig(1), 200)
	if err != nil {
		t.Fatal(err)
	}
	google, _, err := workload.GenerateGoogle(workload.DefaultGoogleConfig(1), 200)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	count := 0
	for _, tr := range append(planetlab, google...) {
		for _, u := range tr {
			buf, _ = appendFloat(buf[:0], u)
			n, man, exp10, neg, plain := scanNumber(buf)
			f, ok := decimalToFloat(man, exp10, neg)
			if n != len(buf) || !plain || !ok || math.Float64bits(f) != math.Float64bits(u) {
				t.Fatalf("%s: scanned %d of %d bytes, plain %t; table conversion %v, ok %t", buf, n, len(buf), plain, f, ok)
			}
			d := elidedDecoder{b: buf}
			if got, ok := d.number(); !ok || math.Float64bits(got) != math.Float64bits(u) {
				t.Fatalf("%s: number() read %v (ok %t), sent %v", buf, got, ok, u)
			}
			count++
		}
	}
	if want := 2 * 200 * workload.SevenDays; count != want {
		t.Fatalf("%d utilizations, want %d", count, want)
	}
}

// TestNumberMatchesStrconv: number() returns strconv.ParseFloat's bits for
// random float64s — bit patterns, rand.Float64, NormFloat64·1e3, k/100 — in
// the wire's form and in plain decimal form, and for random plain decimals of
// up to 20 digits, up to 22 of them after the point, which reach every table
// row and the products the table leaves undecided.
func TestNumberMatchesStrconv(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 100_000
	}
	r := rand.New(rand.NewSource(35))
	check := func(b []byte) {
		t.Helper()
		d := elidedDecoder{b: b}
		got, ok := d.number()
		want, err := strconv.ParseFloat(string(b), 64)
		if !ok || err != nil || d.i != len(b) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: number() %v (ok %t, %d bytes), strconv %v (%v)", b, got, ok, d.i, want, err)
		}
	}
	var buf []byte
	for i := 0; i < n; i++ {
		for _, f := range [...]float64{math.Float64frombits(r.Uint64()), r.Float64(), r.NormFloat64() * 1e3, float64(r.Intn(100_000)) / 100} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			buf, _ = appendFloat(buf[:0], f)
			check(buf)
			if buf = strconv.AppendFloat(buf[:0], f, 'f', -1, 64); len(buf) <= maxNumberBytes {
				check(buf)
			}
		}
		digits := strconv.FormatUint(r.Uint64()>>r.Intn(64), 10)
		frac := r.Intn(23)
		if len(digits) <= frac {
			digits = strings.Repeat("0", frac+1-len(digits)) + digits
		}
		if frac > 0 {
			digits = digits[:len(digits)-frac] + "." + digits[len(digits)-frac:]
		}
		if r.Intn(2) == 0 {
			digits = "-" + digits
		}
		check([]byte(digits))
	}
}

// jsonNumber is the JSON number grammar; numberLead is the longest prefix the
// decoder reads as a number, where a '.' or an exponent mark without digits
// after it is a refusal, not the number's end.
var (
	jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	numberLead = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?`)
)

// FuzzElidedNumber holds number() to its reference on arbitrary bytes — the
// JSON number grammar on a prefix of at most maxNumberBytes, then
// strconv.ParseFloat: the same verdict, the same bytes consumed, the same
// bits.
func FuzzElidedNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "0.3", "1", "0.12345678901234568", "0.9007199254740993",
		"0.0000010000000000000002", "0.12345678901234567891", "18446744073709551615.5",
		"9.99e-7", "1E+0", "1e999", "0.30000000000000004}", "01", "1.", ".5", "-", "1e", "1e+",
		"0x1p-2", "inf", "1_0", "0." + strings.Repeat("3", 40),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(numberLead.Find(data))
		ok := n > 0 && n <= maxNumberBytes && jsonNumber.Match(data[:n])
		var want float64
		if ok {
			var err error
			want, err = strconv.ParseFloat(string(data[:n]), 64)
			ok = err == nil
		}
		d := elidedDecoder{b: data}
		got, gotOK := d.number()
		if gotOK != ok || ok && (d.i != n || math.Float64bits(got) != math.Float64bits(want)) || !ok && d.i != 0 {
			t.Fatalf("%q: number() %v, ok %t, %d bytes; reference %v, ok %t, %d bytes", data, got, gotOK, d.i, want, ok, n)
		}
	})
}
