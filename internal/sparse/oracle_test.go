package sparse

import (
	"fmt"
	"math"
)

// The general rank-1 update and the two products only it needs. Production
// code updates through ShermanMorrisonBasisScaled alone; these stay as the
// oracle its tests and fuzz target compare against.

// VecMul returns xᵀ·M as a sparse vector (the row-vector product).
func (m *Matrix) VecMul(x *Vector) *Vector {
	if x.Dim() != m.dim {
		panic(fmt.Sprintf("sparse: VecMul dimension mismatch %d vs %d", m.dim, x.Dim()))
	}
	out := NewVector(m.dim)
	x.Range(func(i int, xi float64) bool {
		r := &m.peek(i).row
		for p, j := range r.idx {
			out.Add(j, xi*r.val[p])
		}
		if !m.diagSet(i) {
			out.Add(i, xi*m.diag)
		}
		return true
	})
	return out
}

// ShermanMorrison applies the rank-1 inverse update
//
//	M ← M − (M·u)(vᵀ·M) / (1 + vᵀ·M·u)
//
// in place, which is the Sherman–Morrison formula for maintaining M = A⁻¹
// under A ← A + u·vᵀ (paper Eq. 11). It returns the denominator 1 + vᵀMu.
// If the denominator is numerically zero the matrix is left unchanged and
// ErrSingularUpdate is returned.
//
// This is the fully general form, the reference the structure-exploiting
// ShermanMorrisonBasis kernels are cross-checked against; nothing outside the
// tests calls it.
func (m *Matrix) ShermanMorrison(u, v *Vector) (float64, error) {
	mu := m.MulVec(u) // column combination: M·u
	vm := m.VecMul(v) // row combination: vᵀ·M
	den := 1 + vm.Dot(u)
	if math.Abs(den) < 1e-12 {
		return den, ErrSingularUpdate
	}
	inv := 1 / den
	tol := m.dropTol
	mu.Range(func(i int, a float64) bool {
		ai := a * inv
		vm.Range(func(j int, b float64) bool {
			d := ai * b
			// Skip numerically negligible fill-in without touching
			// the storage at all; an existing entry this small is
			// kept only until its next write.
			if d < tol && d > -tol {
				return true
			}
			m.Add(i, j, -d)
			return true
		})
		return true
	})
	return den, nil
}

// Dot returns the inner product ⟨v,u⟩, accumulated in ascending index order
// via a merge walk over the two sorted supports. It panics if dimensions
// differ.
func (v *Vector) Dot(u *Vector) float64 {
	if v.dim != u.dim {
		panic(fmt.Sprintf("sparse: Dot dimension mismatch %d vs %d", v.dim, u.dim))
	}
	var s float64
	p, q := 0, 0
	for p < len(v.idx) && q < len(u.idx) {
		switch {
		case v.idx[p] < u.idx[q]:
			p++
		case v.idx[p] > u.idx[q]:
			q++
		default:
			s += v.val[p] * u.val[q]
			p++
			q++
		}
	}
	return s
}
