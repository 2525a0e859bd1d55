// Package sparse provides the sparse linear-algebra primitives used by the
// Megh learner: sparse vectors, an index-sorted slice-backed matrix with an
// implicit scaled-identity initialisation, and an incremental
// Sherman–Morrison rank-1 inverse update.
//
// The package exists because Megh (Algorithm 1 of the paper) must maintain
// B = T⁻¹ for a d × d operator where d = N·M can reach hundreds of thousands,
// while only O(#migrations) entries ever deviate from the initial (1/δ)·I.
// Storing only the deviations keeps every per-step operation proportional to
// the number of migrations rather than to d² (paper §5.2).
//
// All containers iterate in ascending index order, so floating-point
// accumulation order — and therefore every computed value — is identical
// across runs and across processes. This is what makes same-seed simulation
// traces byte-identical (see DESIGN.md, Performance).
package sparse

import (
	"fmt"
	"sort"
)

// Vector is a sparse real vector of a fixed dimension, stored as parallel
// index/value slices kept sorted by index. Only non-zero entries are stored.
// The zero value is not usable; construct with NewVector.
type Vector struct {
	dim int
	idx []int
	val []float64
}

// NewVector returns a zero vector of the given dimension.
// It panics if dim is negative.
func NewVector(dim int) *Vector {
	if dim < 0 {
		panic(fmt.Sprintf("sparse: negative vector dimension %d", dim))
	}
	return &Vector{dim: dim}
}

// Dim returns the dimension of the vector.
func (v *Vector) Dim() int { return v.dim }

// find returns the position of index i in the sorted index slice and whether
// it is present; when absent, the position is the insertion point.
func (v *Vector) find(i int) (int, bool) {
	p := sort.SearchInts(v.idx, i)
	return p, p < len(v.idx) && v.idx[p] == i
}

// Get returns the i-th entry. It panics if i is out of range.
func (v *Vector) Get(i int) float64 {
	v.check(i)
	if p, ok := v.find(i); ok {
		return v.val[p]
	}
	return 0
}

// Add adds x to the i-th entry.
func (v *Vector) Add(i int, x float64) {
	v.check(i)
	p, ok := v.find(i)
	if ok {
		nx := v.val[p] + x
		if nx == 0 {
			v.removeAt(p)
			return
		}
		v.val[p] = nx
		return
	}
	if x == 0 {
		return
	}
	v.insertAt(p, i, x)
}

func (v *Vector) insertAt(p, i int, x float64) {
	v.idx = append(v.idx, 0)
	copy(v.idx[p+1:], v.idx[p:])
	v.idx[p] = i
	v.val = append(v.val, 0)
	copy(v.val[p+1:], v.val[p:])
	v.val[p] = x
}

func (v *Vector) removeAt(p int) {
	v.idx = append(v.idx[:p], v.idx[p+1:]...)
	v.val = append(v.val[:p], v.val[p+1:]...)
}

// Scale multiplies every entry by a. Scaling by zero clears the vector.
func (v *Vector) Scale(a float64) {
	if a == 0 {
		v.idx = v.idx[:0]
		v.val = v.val[:0]
		return
	}
	for p := range v.val {
		v.val[p] *= a
	}
}

// Range calls f for every stored non-zero entry in ascending index order. If
// f returns false, iteration stops. f must not mutate the vector.
func (v *Vector) Range(f func(i int, x float64) bool) {
	for p, i := range v.idx {
		if !f(i, v.val[p]) {
			return
		}
	}
}

// Dense materialises the vector as a dense slice of length Dim().
func (v *Vector) Dense() []float64 {
	d := make([]float64, v.dim)
	for p, i := range v.idx {
		d[i] = v.val[p]
	}
	return d
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.dim {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, v.dim))
	}
}
