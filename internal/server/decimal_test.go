package server

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestTraceUtilizationsTakeTheTable pins both tables' coverage: every
// utilization the append encoder writes for a week of the two generators'
// traces, 200 VMs each, is written by shortestDecimal — all but the zeros,
// which strconv writes — as a plain decimal that decimalToFloat converts
// without strconv (a change that sent them back to strconv would otherwise
// show in a benchmark only), and number() reads each back to the value sent.
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
	count, zeros := 0, 0
	for _, tr := range append(planetlab, google...) {
		for _, u := range tr {
			buf = roundTrip(t, buf, u)
			d := elidedDecoder{b: buf}
			if got, ok := d.number(); !ok || math.Float64bits(got) != math.Float64bits(u) {
				t.Fatalf("%s: number() read %v (ok %t), sent %v", buf, got, ok, u)
			}
			if u == 0 {
				zeros++
			}
			count++
		}
	}
	if want := 2 * 200 * workload.SevenDays; count != want {
		t.Fatalf("%d utilizations, want %d", count, want)
	}
	t.Logf("%d utilizations, %d of them zero", count, zeros)
}

// roundTrip checks that both halves of decimal.go agree on u: the encoder
// writes it by shortestDecimal unless it is zero, and scanNumber plus
// decimalToFloat read what it wrote back to u's bits, without strconv. It
// returns the bytes written, in buf.
func roundTrip(t *testing.T, buf []byte, u float64) []byte {
	t.Helper()
	if _, _, ok := shortestDecimal(u); ok != (u != 0) {
		t.Fatalf("%v: shortestDecimal ok %t", u, ok)
	}
	buf, _ = appendFloat(buf[:0], u)
	n, man, exp10, neg, plain := scanNumber(buf)
	f, ok := decimalToFloat(man, exp10, neg)
	if n != len(buf) || !plain || !ok || math.Float64bits(f) != math.Float64bits(u) {
		t.Fatalf("%s: scanned %d of %d bytes, plain %t; table conversion %v, ok %t", buf, n, len(buf), plain, f, ok)
	}
	return buf
}

// TestDecimalRoundTrip: what the encoder writes for 2²⁰ random values in
// [1e-6, 1], utilizations of every magnitude, the decoder reads back to the
// same bits, neither half calling strconv (TestTraceUtilizationsTakeTheTable
// does the same for the traces' utilizations).
func TestDecimalRoundTrip(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 100_000
	}
	r := rand.New(rand.NewSource(37))
	var buf []byte
	for i := 0; i < n; i++ {
		buf = roundTrip(t, buf, math.Max(1e-6, math.Pow(10, -6*r.Float64())))
	}
}

// TestSchubfachRows recomputes every row of schubfachRows from math/big —
// ⌊10^n·2^(127−⌊log₂10^n⌋)⌋+1 as {hi, lo} — and holds the three integer
// shortcuts to the exact floors they stand for over every binary exponent q
// shortestDecimal reaches, 2^-37's to the one below 2^56's, and every row
// index those reach; each row exists and its scaled operands fit 64 bits.
func TestSchubfachRows(t *testing.T) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for n, row := range schubfachRows {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(n)), nil)
		g := new(big.Int).Lsh(p, uint(127-(p.BitLen()-1)))
		g.Add(g, big.NewInt(1))
		want := [2]uint64{new(big.Int).Rsh(g, 64).Uint64(), new(big.Int).And(g, mask).Uint64()}
		if row != want {
			t.Errorf("row %d: {%#x, %#x}, want {%#x, %#x}", n, row[0], row[1], want[0], want[1])
		}
		if got := floorLog2Pow10(n); got != p.BitLen()-1 {
			t.Errorf("floorLog2Pow10(%d) = %d, want %d", n, got, p.BitLen()-1)
		}
	}
	// floorLog10 is the largest k with 10^k ≤ x.
	floorLog10 := func(x *big.Rat) int {
		k := 0
		for ; pow10Rat(k).Cmp(x) > 0; k-- {
		}
		for ; pow10Rat(k+1).Cmp(x) <= 0; k++ {
		}
		return k
	}
	qMin := int(math.Float64bits(0x1p-37)>>52) - 1075
	qMax := int(math.Float64bits(math.Nextafter(0x1p56, 0))>>52) - 1075
	if qMin != -89 || qMax != 3 {
		t.Fatalf("binary exponents %d…%d, want -89…3", qMin, qMax)
	}
	for q := qMin; q <= qMax; q++ {
		pow2 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(max(q, -q))))
		if q < 0 {
			pow2.Inv(pow2)
		}
		for _, c := range []struct {
			name string
			got  int
			x    *big.Rat
		}{
			{"floorLog10Pow2", floorLog10Pow2(q), pow2},
			{"floorLog10ThreeQuartersPow2", floorLog10ThreeQuartersPow2(q), new(big.Rat).Mul(pow2, big.NewRat(3, 4))},
		} {
			if want := floorLog10(c.x); c.got != want {
				t.Errorf("%s(%d) = %d, want %d", c.name, q, c.got, want)
			}
			n := -c.got
			h := q + floorLog2Pow10(n) + 1
			if n < 0 || n >= len(schubfachRows) || h < 1 || (1<<55+2)<<h>>h != 1<<55+2 {
				t.Errorf("%s at q = %d: row %d, shift %d", c.name, q, n, h)
			}
		}
	}
}

// pow10Rat is 10^k, exactly.
func pow10Rat(k int) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
	if k < 0 {
		return new(big.Rat).SetFrac(big.NewInt(1), p)
	}
	return new(big.Rat).SetInt(p)
}

// floatEdges are the float64s random sampling would miss, each with its
// neighbours one ulp away and the negatives of all three: every power of
// two, every 10^n for |n| ≤ 22, the edges of shortestDecimal's range and of
// the exponent form, and values whose exact decimal is a tie at the length
// Schubfach first tries (2^50 + ¼ lies halfway between two 17-digit
// decimals) or is short (0.5, 0.125, 0.375, 2^-20).
func floatEdges() []float64 {
	var fs []float64
	add := func(f float64) {
		for _, g := range [...]float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			fs = append(fs, g, -g)
		}
	}
	for e := -1074; e <= 1023; e++ {
		add(math.Ldexp(1, e))
	}
	for n := -22; n <= 22; n++ {
		f, err := strconv.ParseFloat(fmt.Sprintf("1e%d", n), 64)
		if err != nil {
			panic(err)
		}
		add(f)
	}
	for _, f := range []float64{
		1e-6, 0x1p-37, 1 << 56, 1e21, 0.5, 0.125, 0.375, 0x1p-20, 1125899906842624.25, 1125899906842624.75,
		2251799813685247.5, 4503599627370495.5, 9007199254740991, 0.3, 1.0 / 3, 2.0 / 3, 123456.789,
	} {
		add(f)
	}
	return fs
}

// floatChecker fails t unless shortestDecimal takes f exactly when |f| is in
// [2^-37, 2^56) and then gives strconv's shortest digits, and appendFloat
// writes f as strconv's shortest form does — 'f' wherever encoding/json
// writes that (|f| in [1e-6, 1e21) and ±0), else 'e' with e-0N as e-N —
// and, when withJSON, as json.Marshal does. got and want are its reused
// buffers.
type floatChecker struct{ got, want []byte }

func (c *floatChecker) check(t *testing.T, f float64, withJSON bool) {
	t.Helper()
	digits, exp10, ok := shortestDecimal(f)
	if a := math.Abs(f); ok != (a >= 0x1p-37 && a < 0x1p56) {
		t.Fatalf("%v: shortestDecimal ok %t", f, ok)
	}
	if ok {
		if wantDigits, wantExp := strconvDigits(f); digits != wantDigits || exp10 != wantExp {
			t.Fatalf("%v (bits %#x): shortestDecimal %de%d, strconv %de%d", f, math.Float64bits(f), digits, exp10, wantDigits, wantExp)
		}
	}
	var err error
	if c.got, err = appendFloat(c.got[:0], f); err != nil {
		t.Fatalf("%v (bits %#x): %v", f, math.Float64bits(f), err)
	}
	if a := math.Abs(f); a == 0 || a >= 1e-6 && a < 1e21 {
		c.want = strconv.AppendFloat(c.want[:0], f, 'f', -1, 64)
	} else if c.want = strconv.AppendFloat(c.want[:0], f, 'e', -1, 64); bytes.Contains(c.want, []byte("e-0")) {
		c.want = append(c.want[:len(c.want)-2], c.want[len(c.want)-1])
	}
	if !bytes.Equal(c.got, c.want) {
		t.Fatalf("%v (bits %#x): wrote %s, strconv %s", f, math.Float64bits(f), c.got, c.want)
	}
	if withJSON {
		if want, _ := json.Marshal(f); !bytes.Equal(c.got, want) {
			t.Fatalf("%v (bits %#x): wrote %s, json.Marshal %s", f, math.Float64bits(f), c.got, want)
		}
	}
}

// strconvDigits returns strconv's shortest digits of |f| as digits ×
// 10^exp10, digits without trailing zeros.
func strconvDigits(f float64) (digits uint64, exp10 int) {
	mant, exp, _ := strings.Cut(strconv.FormatFloat(math.Abs(f), 'e', -1, 64), "e")
	whole, frac, _ := strings.Cut(mant, ".")
	digits, _ = strconv.ParseUint(whole+frac, 10, 64)
	exp10, _ = strconv.Atoi(exp)
	return digits, exp10 - len(frac)
}

// TestAppendFloatMatchesStrconv holds appendFloat and shortestDecimal to
// strconv (floatChecker) on 2²⁰ each of random bit patterns, rand.Float64,
// NormFloat64·1e3, k/100 and random 53-bit mantissas at every binary
// exponent the rows cover — below 1e-6 too, where appendFloat leaves the
// exponent form to strconv — and on floatEdges. One value in 64 is checked
// against json.Marshal too, every edge is.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 100_000
	}
	r := rand.New(rand.NewSource(37))
	var c floatChecker
	check := func(f float64, withJSON bool) {
		t.Helper()
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			c.check(t, f, withJSON)
		}
	}
	for i := 0; i < n; i++ {
		mantissa := float64(1<<52 | r.Int63n(1<<52))
		for _, f := range [...]float64{
			math.Float64frombits(r.Uint64()), r.Float64(), r.NormFloat64() * 1e3, float64(r.Intn(100_000)) / 100,
			math.Ldexp(mantissa, -89+i%93) * float64(1-2*r.Intn(2)),
		} {
			check(f, i%64 == 0)
		}
	}
	for _, f := range floatEdges() {
		check(f, true)
	}
}

// FuzzAppendFloat holds appendFloat and shortestDecimal to strconv and
// json.Marshal (floatChecker) on arbitrary bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -0.3, 1.0 / 3, 1125899906842624.25,
		math.Nextafter(1<<56, 0), 1 << 56, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		if x := math.Float64frombits(bits); !math.IsNaN(x) && !math.IsInf(x, 0) {
			new(floatChecker).check(t, x, true)
		}
	})
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
