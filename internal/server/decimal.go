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
