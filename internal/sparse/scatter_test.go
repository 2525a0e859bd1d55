package sparse

import (
	"math"
	"testing"
)

// scatterRef is the scalar reference Matrix.AddThetaScaledCol and
// AddThetaNewCol must match bitwise.
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

// thetaPair returns a matrix of several pages and a dense slice holding the
// same awkward non-zero θ cells in some of the pages.
func thetaPair(dim int, eager bool) (*Matrix, []float64) {
	m := newMatrix(dim, 1/float64(dim), eager)
	m.SetDropTolerance(1e-9 / float64(dim))
	dense := make([]float64, dim)
	for k := range dense {
		if (k>>pageShift)%3 == 0 { // two pages in three start unwritten
			dense[k] = 1e-3 * float64(k*k-17)
			m.setTheta(k, dense[k])
		}
	}
	return m, dense
}

func checkThetaEqualsDense(t *testing.T, m *Matrix, dense []float64, what string) {
	t.Helper()
	for k, want := range dense {
		if got := m.Theta(k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: cell %d = %x, scalar ref %x", what, k, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// scatterUpdates runs Megh-shaped updates — a hot set of actions, so
// columns fill in, on written and unwritten pages, with and without a
// record — on a thetaPair of each page policy, and calls f after each
// successful one, with the update's two scales.
func scatterUpdates(t *testing.T, f func(m *Matrix, dense []float64, s, c float64)) {
	const dim = 6*pageSize + 9
	for _, eager := range []bool{true, false} {
		m, dense := thetaPair(dim, eager)
		x := uint64(7)
		next := func(n int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % n
		}
		hot := make([]int, 12)
		for k := range hot {
			hot[k] = next(dim)
		}
		unnumbered := 0 // updates whose a had no record yet
		for it := 0; it < 200; it++ {
			a, b := hot[next(len(hot))], hot[next(len(hot))]
			if rec, _ := m.peek(a); rec == &emptyRecord {
				unnumbered++
			}
			if _, err := m.ShermanMorrisonBasis(a, b, 0.5); err != nil {
				continue
			}
			s := math.Ldexp(float64(next(1000))-500, -next(12)) / 3
			f(m, dense, s, 2.5000000001*float64(next(3)))
		}
		checkMatrixInvariants(t, m)
		if unnumbered == 0 {
			t.Fatal("every update's action already had a record")
		}
	}
}

// Scattering along the update's two column snapshots — through the records
// the update resolved, or by numbering a's when the column holds its
// implicit diagonal — leaves the bits the scalar loop leaves on a flat
// slice, pages allocated up front or on first write.
func TestScatterAddScaledBitwiseMatchesScalar(t *testing.T) {
	scatterUpdates(t, func(m *Matrix, dense []float64, s, c float64) {
		idx, val := m.LastUpdateScaledCol()
		scatterRef(dense, idx, val, s)
		m.AddThetaScaledCol(s)
		idx, val = m.LastUpdateNewCol()
		scatterRef(dense, idx, val, c)
		m.AddThetaNewCol(c)
		checkThetaEqualsDense(t, m, dense, "scatter")
	})
}

// The returned Σ(s·val)² must be the scalar loop's, term by term.
func TestScatterAddScaledSqBitwiseMatchesScalar(t *testing.T) {
	scatterUpdates(t, func(m *Matrix, dense []float64, s, c float64) {
		idx, val := m.LastUpdateScaledCol()
		wantSq := scatterRef(dense, idx, val, s)
		if gotSq := m.AddThetaScaledCol(s); math.Float64bits(gotSq) != math.Float64bits(wantSq) {
			t.Fatalf("dsq = %x, scalar ref %x", math.Float64bits(gotSq), math.Float64bits(wantSq))
		}
		idx, val = m.LastUpdateNewCol()
		wantSq = scatterRef(dense, idx, val, c)
		if gotSq := m.AddThetaNewCol(c); math.Float64bits(gotSq) != math.Float64bits(wantSq) {
			t.Fatalf("dsq = %x, scalar ref %x", math.Float64bits(gotSq), math.Float64bits(wantSq))
		}
	})
}

// TestScatterNegatedScaleMatchesSubtraction pins the identity the core θ
// update relies on: x += (−a)·v is bitwise x −= a·v (IEEE-754 negation of a
// product is exact), so the update can route its subtraction through
// AddThetaScaledCol.
func TestScatterNegatedScaleMatchesSubtraction(t *testing.T) {
	scatterUpdates(t, func(m *Matrix, dense []float64, s, _ float64) {
		idx, val := m.LastUpdateScaledCol()
		for k := range idx {
			dense[idx[k]] -= s * val[k]
		}
		m.AddThetaScaledCol(-s)
		checkThetaEqualsDense(t, m, dense, "negated scale")
	})
}

// GatherMin pulls one row out of θ's cells: same values, same minimum —
// ties and signed zeros included — as the scalar loop over a flat slice,
// whether the row's pages exist and whether its indices have records, and
// from a base that is not page-aligned.
func TestGatherMinBitwiseMatchesScalar(t *testing.T) {
	const base, width = 3*pageSize + 11, 128
	for _, eager := range []bool{true, false} {
		m := newMatrix(base+width+pageSize, 0.5, eager)
		row := make([]float64, width)
		for i := range row {
			switch {
			case i >= pageSize && i < 2*pageSize-11:
				continue // one page of the row stays unwritten: it reads +0
			case i%5 == 0:
				continue // no record on a written page: +0 too
			case i%5 == 1:
				m.AddZ(base+i, 1) // a record whose θ cell stays +0
				continue
			}
			// Include ties (equal bit patterns) and signed zeros: -0.0 == 0.0
			// compares equal, so strict-less keeps whichever came first — both
			// loops must agree on that.
			row[i] = float64((i*7)%13) - 6
			if i%13 == 0 {
				row[i] = math.Copysign(0, -1)
			}
			m.setTheta(base+i, row[i])
		}
		for _, n := range []int{0, 1, 2, 4, 5, 11, 128} {
			idx := make([]int, n)
			for k := range idx {
				idx[k] = (k * 17) % len(row)
			}
			got := make([]float64, n)
			want := make([]float64, n)
			gm := m.GatherMin(got, base, idx)
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
		if gm := m.GatherMin(nil, base, nil); !math.IsInf(gm, 1) {
			t.Fatalf("empty gather min = %v, want +Inf", gm)
		}
	}
}
