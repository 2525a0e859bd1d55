package server

import (
	"math"
	"math/bits"
)

// pow10 holds 10^e, e = minPow10…0, as truncated 128-bit mantissas {hi, lo}
// with hi's top bit set: the rows of the Eisel–Lemire table (Lemire, "Number
// Parsing at a Gigabyte per Second", SPE 2021) that strconv uses too. They
// cover every float64 encoding/json writes in plain decimal form, as it does
// every utilization from 1e-6 up: at most 17 digits, 22 after the point.
var pow10 = [...][2]uint64{
	{0xF1C90080BAF72CB1, 0x5324C68B12DD6338}, // 1e-22
	{0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E03}, // 1e-21
	{0xBCE5086492111AEA, 0x88F4BB1CA6BCF584}, // 1e-20
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x8000000000000000, 0x0000000000000000}, // 1e0
}

const minPow10 = -22 // the power of ten in pow10's first row

// scanNumber measures the JSON number at the start of b — n is its length, 0
// if b does not start with one — and gathers, in the same pass, the digits of
// a plain decimal: when plain, the number is ±man × 10^exp10 with man holding
// every significant digit. Exponent form and more than 19 significant digits
// are not plain.
func scanNumber(b []byte) (n int, man uint64, exp10 int, neg, plain bool) {
	i := 0
	if neg = i < len(b) && b[i] == '-'; neg {
		i++
	}
	digits := 0 // significant digits in man; past 19 it has wrapped
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		start := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		digits = i - start
	default:
		return 0, 0, 0, false, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if man == 0 { // zeros before the first significant digit
			for ; i < len(b) && b[i] == '0'; i++ {
			}
		}
		start := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return 0, 0, 0, false, false
		}
		digits += i - start
		exp10 = frac - i
	}
	plain = digits <= 19
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		plain = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
		if i == exp {
			return 0, 0, 0, false, false
		}
	}
	return i, man, exp10, neg, plain
}

// decimalToFloat converts ±man × 10^exp10 to the nearest float64, ties to
// even, by the Eisel–Lemire algorithm — the steps of strconv's eiselLemire64
// on pow10's rows. ok is false when exp10 has no row, or when the truncated
// row leaves the rounding undecided; strconv.ParseFloat decides every case.
func decimalToFloat(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	if exp10 < minPow10 || exp10 >= minPow10+len(pow10) {
		return 0, false
	}
	p := &pow10[exp10-minPow10]
	// Normalise man; 217706 / 2^16 is log2(10), and 1023 the exponent bias.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, p[0])
	// All nine bits below the kept ones set: the truncated rest of the
	// product could carry into the kept bits, so widen it with the low word.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, p[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	// Keep 54 bits, the last one to round with; an exact half-way product
	// cannot tell a tie from a truncated value just above it.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// man × 10^exp10 lies in [1e-22, 2^64), far inside the normal range.
	return math.Float64frombits(sign | exp2<<52 | mant&(1<<52-1)), true
}

// schubfachRows holds the rows g(n) = ⌊10^n·2^(127−⌊log₂10^n⌋)⌋+1, n = 0…27,
// of Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
// 10^n = 5^n·2^n is exact while 5^n fits 64 bits, so a row is {5^n ≪ clz, 1}.
var schubfachRows = func() (rows [28][2]uint64) {
	for n, p := 0, uint64(1); n < len(rows); n, p = n+1, p*5 {
		rows[n] = [2]uint64{p << bits.LeadingZeros64(p), 1}
	}
	return rows
}()

// ⌊log₁₀2^q⌋, ⌊log₁₀ ¾·2^q⌋, ⌊log₂10^n⌋: exact where used (TestSchubfachRows).
func floorLog10Pow2(q int) int              { return q * 1262611 >> 22 }
func floorLog10ThreeQuartersPow2(q int) int { return (q*1262611 - 524031) >> 22 }
func floorLog2Pow10(n int) int              { return n * 1741647 >> 19 }

// roundToOdd returns g·cp/2^128 truncated, made odd if that cut anything off.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	if z > 1 {
		return y1 + carry | 1
	}
	return y1 + carry
}

// shortestDecimal returns the digits × 10^exp10 strconv's shortest
// formatting gives |f| — the fewest digits that read back as |f|, of those
// the closest, ties to even — by Schubfach over schubfachRows; digits has
// no trailing zeros. ok is false outside [2^-37, 2^56), what the rows cover.
func shortestDecimal(f float64) (digits uint64, exp10 int, ok bool) {
	if a := math.Abs(f); !(a >= 0x1p-37 && a < 0x1p56) {
		return 0, 0, false
	}
	// |f| = c·2^q; an integer below 2^53 is its own digits.
	c := math.Float64bits(f)&(1<<52-1) | 1<<52
	q := int(math.Float64bits(f)>>52&0x7FF) - 1075
	if q <= 0 && bits.TrailingZeros64(c) >= -q {
		digits = c >> uint(-q)
	} else {
		// 4·|f|·10^-k and the ends of the interval that rounds to |f|, which
		// count when c is even; the float below a power of two is half as far.
		cb, cbl, k := c<<2, c<<2-2, floorLog10Pow2(q)
		if c == 1<<52 {
			cbl, k = cb-1, floorLog10ThreeQuartersPow2(q)
		}
		g, h := &schubfachRows[-k], q+floorLog2Pow10(-k)+1
		vb, odd := roundToOdd(g, cb<<h), c&1
		lower, upper := roundToOdd(g, cbl<<h)+odd, roundToOdd(g, (cb+2)<<h)-odd
		// One digit fewer if a multiple of ten is in (at most one fits);
		// else s or s+1, whichever is in, or the closer, ties to even.
		s := vb >> 2
		if up, wp := lower <= s/10*40, s/10*40+40 <= upper; up != wp {
			digits, exp10 = s/10, k+1
			if wp {
				digits++
			}
		} else if digits, exp10 = s, k; lower > 4*s || 4*s+4 <= upper && (vb > 4*s+2 || vb == 4*s+2 && s&1 == 1) {
			digits++
		}
	}
	for ; digits%10 == 0; digits, exp10 = digits/10, exp10+1 {
	}
	return digits, exp10, true
}

const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendDecimal appends ±digits·10^exp10 (in [1e-6, 2^56), digits < 10^17)
// in strconv's 'f' form, two digits per step in 32-bit halves of 10^8.
func appendDecimal(b []byte, neg bool, digits uint64, exp10 int) []byte {
	var buf [18]byte
	i, x := len(buf), uint32(digits)
	pair := func(r uint32) { i -= 2; buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1] }
	if digits >= 1e8 {
		for lo, j := uint32(digits%1e8), 0; j < 4; lo, j = lo/100, j+1 {
			pair(lo % 100)
		}
		x = uint32(digits / 1e8)
	}
	for ; x >= 100; x /= 100 {
		pair(x % 100)
	}
	if pair(x); x < 10 {
		i++ // the leading zero of "05"
	}
	if neg {
		b = append(b, '-')
	}
	d := buf[i:]
	switch dp := len(d) + exp10; {
	case exp10 >= 0: // exp10 ≤ 16 below 2^56
		b = append(append(b, d...), "0000000000000000"[:exp10]...)
	case dp > 0:
		b = append(append(append(b, d[:dp]...), '.'), d[dp:]...)
	default: // dp ≥ −5 from 1e-6 up
		b = append(append(b, "0.00000"[:2-dp]...), d...)
	}
	return b
}
