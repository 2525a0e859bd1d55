package sparse

import (
	"fmt"
	"math"
)

// Dense is a small dense square matrix used as a reference implementation in
// tests and ablation benchmarks (e.g. Sherman–Morrison vs full re-inversion).
// It is row-major.
type Dense struct {
	n int
	a []float64
}

// NewDense returns an n × n zero dense matrix.
func NewDense(n int) *Dense {
	if n < 0 {
		panic(fmt.Sprintf("sparse: negative dense dimension %d", n))
	}
	return &Dense{n: n, a: make([]float64, n*n)}
}

// NewDenseIdentity returns c·I of dimension n.
func NewDenseIdentity(n int, c float64) *Dense {
	d := NewDense(n)
	for i := 0; i < n; i++ {
		d.Set(i, i, c)
	}
	return d
}

// Get returns entry (i,j).
func (d *Dense) Get(i, j int) float64 { return d.a[i*d.n+j] }

// Set assigns entry (i,j).
func (d *Dense) Set(i, j int, x float64) { d.a[i*d.n+j] = x }

// Add adds x to entry (i,j).
func (d *Dense) Add(i, j int, x float64) { d.a[i*d.n+j] += x }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.n)
	copy(c.a, d.a)
	return c
}

// AddOuter applies A ← A + s·u·vᵀ with dense vectors u, v.
func (d *Dense) AddOuter(s float64, u, v []float64) {
	if len(u) != d.n || len(v) != d.n {
		panic("sparse: AddOuter dimension mismatch")
	}
	for i := 0; i < d.n; i++ {
		if u[i] == 0 {
			continue
		}
		su := s * u[i]
		row := d.a[i*d.n : (i+1)*d.n]
		for j := 0; j < d.n; j++ {
			row[j] += su * v[j]
		}
	}
}

// MulVec returns A·x as a dense slice.
func (d *Dense) MulVec(x []float64) []float64 {
	if len(x) != d.n {
		panic("sparse: MulVec dimension mismatch")
	}
	out := make([]float64, d.n)
	for i := 0; i < d.n; i++ {
		row := d.a[i*d.n : (i+1)*d.n]
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] = s
	}
	return out
}

// ErrSingular is returned by Invert when the matrix is numerically singular.
var ErrSingular = fmt.Errorf("sparse: matrix is numerically singular")

// Invert returns A⁻¹ computed by Gauss–Jordan elimination with partial
// pivoting (the O(d³) path Megh avoids; kept as the test oracle and the
// ablation baseline). It returns ErrSingular when a pivot underflows.
func (d *Dense) Invert() (*Dense, error) {
	n := d.n
	// Augmented [A | I] worked in place.
	a := d.Clone()
	inv := NewDenseIdentity(n, 1)
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(a.Get(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.Get(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if p != col {
			a.swapRows(p, col)
			inv.swapRows(p, col)
		}
		piv := a.Get(col, col)
		invPiv := 1 / piv
		for j := 0; j < n; j++ {
			a.Set(col, j, a.Get(col, j)*invPiv)
			inv.Set(col, j, inv.Get(col, j)*invPiv)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.Get(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Add(r, j, -f*a.Get(col, j))
				inv.Add(r, j, -f*inv.Get(col, j))
			}
		}
	}
	return inv, nil
}

func (d *Dense) swapRows(i, j int) {
	ri := d.a[i*d.n : (i+1)*d.n]
	rj := d.a[j*d.n : (j+1)*d.n]
	for k := 0; k < d.n; k++ {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
