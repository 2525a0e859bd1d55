package sparse

import (
	"bytes"
	"io"
)

// Test-only ways to build and read vectors and matrices: no production
// path needs them, the tests use them to set up and inspect state.

// Basis returns the standard basis vector e_i of the given dimension.
func Basis(dim, i int) *Vector {
	v := NewVector(dim)
	v.Set(i, 1)
	return v
}

// NNZ returns the number of stored non-zero entries.
func (v *Vector) NNZ() int { return len(v.idx) }

// Set assigns the i-th entry. Setting an entry to exactly zero removes it
// from the underlying storage.
func (v *Vector) Set(i int, x float64) {
	v.check(i)
	p, ok := v.find(i)
	if ok {
		if x == 0 {
			v.removeAt(p)
			return
		}
		v.val[p] = x
		return
	}
	if x == 0 {
		return
	}
	v.insertAt(p, i, x)
}

// Set assigns entry (i,j). Setting an off-diagonal entry to zero (or below
// the drop tolerance) removes it; a diagonal entry set to zero stays
// materialised as absent (overriding the implicit identity).
func (m *Matrix) Set(i, j int, x float64) {
	m.check(i, j)
	if i == j {
		m.setDiag(i)
	}
	if x < m.dropTol && x > -m.dropTol {
		x = 0
	}
	// A found entry means the page exists, so the peeked row is the row.
	r := &m.peek(i).row
	p, ok := r.find(j)
	if x == 0 {
		if ok {
			r.removeAt(p)
			m.colRemove(j, i)
			m.nnz--
		}
		return
	}
	if ok {
		r.val[p] = x
		return
	}
	m.touch(i).row.insertAt(p, j, x)
	m.colInsert(j, i)
	m.nnz++
}

// Add adds x to entry (i,j), respecting the implicit diagonal.
func (m *Matrix) Add(i, j int, x float64) {
	m.Set(i, j, m.Get(i, j)+x)
}

// Col returns column j as a sparse vector (a copy, including the implicit
// diagonal entry if still in effect).
func (m *Matrix) Col(j int) *Vector {
	m.check(0, j)
	v := &Vector{dim: m.dim}
	v.idx, v.val = m.AppendCol(j, v.idx, v.val)
	return v
}

// inImage lays lists end to end, as a checkpoint image holds them: the
// source and the sections Validate, MatrixFromState and VectorFromState read.
func inImage(lists ...[]byte) (io.ReaderAt, []Section) {
	var img []byte
	at := make([]Section, len(lists))
	for i, l := range lists {
		at[i] = Section{Off: int64(len(img)), Len: int64(len(l))}
		img = append(img, l...)
	}
	return bytes.NewReader(img), at
}

// Validate, MatrixFromState and VectorFromState on a state that holds its
// own lists.

func (st MatrixState) validate() error {
	src, at := inImage(st.PackedRows, st.PackedCols, st.PackedVals, st.PackedDiag)
	return st.Validate(src, at)
}

func (st VectorState) validate() error {
	src, at := inImage(st.PackedIndex, st.PackedValue)
	return st.Validate(src, at)
}

func matrixFromState(st MatrixState) (*Matrix, error) {
	src, at := inImage(st.PackedRows, st.PackedCols, st.PackedVals, st.PackedDiag)
	return MatrixFromState(st, src, at)
}

func vectorFromState(st VectorState) (*Vector, error) {
	src, at := inImage(st.PackedIndex, st.PackedValue)
	return VectorFromState(st, src, at)
}
