package sparse

import (
	"math"
	"sort"
	"testing"
)

// scatterRef is the scalar reference PagedVector.AddScaled must match
// bitwise.
func scatterRef(dst []float64, idx []int, val []float64, s float64) float64 {
	var dsq float64
	for k := range idx {
		d := s * val[k]
		dst[idx[k]] += d
		dsq += d * d
	}
	return dsq
}

func gatherRef(dst []float64, row []float64, idx []int) float64 {
	min := math.Inf(1)
	for k, i := range idx {
		q := row[i]
		dst[k] = q
		if q < min {
			min = q
		}
	}
	return min
}

// scatterCase builds an awkward deterministic input: irregular lengths
// (exercising every unroll tail), duplicate indices, negative and
// denormal-ish magnitudes, and a scale that does not round trip through
// decimal.
func scatterCase(n, width int, seed uint64) (idx []int, val []float64) {
	idx = make([]int, n)
	val = make([]float64, n)
	x := seed
	for k := 0; k < n; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx[k] = int(x>>33) % width
		val[k] = math.Ldexp(float64(int64(x)%1000)-500, -int(x>>60)) / 3
	}
	// Force duplicates inside one 4-group and across groups.
	if n >= 6 {
		idx[1] = idx[0]
		idx[5] = idx[0]
	}
	return idx, val
}

// pagedPair returns a PagedVector of several pages and a dense slice holding
// the same awkward non-zero start values in some of the pages.
func pagedPair(dim int, eager bool) (*PagedVector, []float64) {
	v := newPagedVector(dim, eager)
	dense := make([]float64, dim)
	for k := range dense {
		if (k>>pageShift)%3 == 0 { // two pages in three start unwritten
			dense[k] = 1e-3 * float64(k*k-17)
			v.Set(k, dense[k])
		}
	}
	return v, dense
}

func checkPagedEqualsDense(t *testing.T, v *PagedVector, dense []float64, what string) {
	t.Helper()
	for k, want := range dense {
		if got := v.At(k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: cell %d = %x, scalar ref %x", what, k, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// AddScaled on a paged vector — pages allocated up front or on first write —
// must leave the bits the scalar loop leaves on a flat slice, for unsorted
// and duplicate indices that hop between pages.
func TestScatterAddScaledBitwiseMatchesScalar(t *testing.T) {
	const dim = 6*pageSize + 9
	for _, eager := range []bool{true, false} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 100} {
			idx, val := scatterCase(n, dim, uint64(n)+1)
			v, dense := pagedPair(dim, eager)
			const scale = -0.7316519841
			v.AddScaled(idx, val, scale)
			scatterRef(dense, idx, val, scale)
			checkPagedEqualsDense(t, v, dense, "unsorted")
		}
	}
}

// The returned Σ(s·val)² must be the scalar loop's, term by term, on the
// ascending index lists the learner passes (a matrix column).
func TestScatterAddScaledSqBitwiseMatchesScalar(t *testing.T) {
	const dim = 4 * pageSize
	for _, eager := range []bool{true, false} {
		for _, n := range []int{0, 1, 3, 4, 6, 9, 64, 101} {
			idx, val := scatterCase(n, dim, uint64(n)+99)
			sort.Ints(idx)
			v, dense := pagedPair(dim, eager)
			const scale = 2.5000000001
			gotSq := v.AddScaled(idx, val, scale)
			wantSq := scatterRef(dense, idx, val, scale)
			if math.Float64bits(gotSq) != math.Float64bits(wantSq) {
				t.Fatalf("n=%d: dsq = %x, scalar ref %x", n,
					math.Float64bits(gotSq), math.Float64bits(wantSq))
			}
			checkPagedEqualsDense(t, v, dense, "ascending")
		}
	}
}

// TestScatterNegatedScaleMatchesSubtraction pins the identity the core θ
// update relies on: x += (−a)·v is bitwise x −= a·v (IEEE-754 negation of a
// product is exact), so applyUpdate can route its subtraction through
// AddScaled.
func TestScatterNegatedScaleMatchesSubtraction(t *testing.T) {
	const dim = 3*pageSize + 5
	idx, val := scatterCase(37, dim, 5)
	v, dense := pagedPair(dim, false)
	const scale = 1.9137516254e-3
	v.AddScaled(idx, val, -scale)
	for k := range idx {
		dense[idx[k]] -= scale * val[k]
	}
	checkPagedEqualsDense(t, v, dense, "negated scale")
}

// GatherMin pulls one row out of a paged vector: same values, same minimum
// — ties and signed zeros included — as the scalar loop over a flat slice,
// whether the row's pages exist, and from a base that is not page-aligned.
func TestGatherMinBitwiseMatchesScalar(t *testing.T) {
	const base, width = 3*pageSize + 11, 128
	for _, eager := range []bool{true, false} {
		v := newPagedVector(base+width+pageSize, eager)
		row := make([]float64, width)
		for i := range row {
			if i >= pageSize && i < 2*pageSize-11 {
				continue // one page of the row stays unwritten: it reads +0
			}
			// Include ties (equal bit patterns) and signed zeros: -0.0 == 0.0
			// compares equal, so strict-less keeps whichever came first — both
			// loops must agree on that.
			row[i] = float64((i*7)%13) - 6
			if i%13 == 0 {
				row[i] = math.Copysign(0, -1)
			}
			v.Set(base+i, row[i])
		}
		for _, n := range []int{0, 1, 2, 4, 5, 11, 128} {
			idx := make([]int, n)
			for k := range idx {
				idx[k] = (k * 17) % len(row)
			}
			got := make([]float64, n)
			want := make([]float64, n)
			gm := v.GatherMin(got, base, idx)
			wm := gatherRef(want, row, idx)
			if math.Float64bits(gm) != math.Float64bits(wm) {
				t.Fatalf("n=%d: min = %x, scalar ref %x", n, math.Float64bits(gm), math.Float64bits(wm))
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("n=%d: dst[%d] = %v, scalar ref %v", n, k, got[k], want[k])
				}
			}
		}
		if gm := v.GatherMin(nil, base, nil); !math.IsInf(gm, 1) {
			t.Fatalf("empty gather min = %v, want +Inf", gm)
		}
	}
}
