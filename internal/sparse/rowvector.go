package sparse

import (
	"fmt"
	"sort"
	"unsafe"
)

// RowVector is a sparse real vector whose index space is cut into rows of
// one fixed width, each row its own sorted run, created when first written.
// It reads and packs exactly like a Vector — same entries, same ascending
// order, same State bytes — but an insert shifts at most one row's entries
// instead of everything stored above the index.
//
// It holds the Megh learner's z = Σ φ_a·C, which gains entries for as long
// as the learner runs: action a = vm·M + host lands in row vm, so one Add
// costs O(log M + M) however many entries the months before it left behind.
// Memory is the stored entries plus one slot number per row; nothing is
// sized by Dim.
type RowVector struct {
	dim, width int
	// Row r is runs[slot[r]-1], and has no run yet while slot[r] is 0. As
	// in pageTable, slots are numbers, not pointers: the one part sized by
	// the world is never scanned by the garbage collector, and the run
	// headers share one growing array.
	slot []uint32
	runs []span
	sh   shelves // arrays the runs outgrew, for the next to grow
	// nnz counts the stored entries, so NNZ and ResidentBytes — read after
	// every Megh.Decide of an instrumented learner — are O(1).
	nnz int
}

// NewRowVector returns a zero vector of the given dimension cut into rows
// of width indices. It panics if dim is negative or width is not positive.
func NewRowVector(dim, width int) *RowVector {
	if dim < 0 || width <= 0 {
		panic(fmt.Sprintf("sparse: row vector of dimension %d in rows of %d", dim, width))
	}
	return &RowVector{dim: dim, width: width, slot: make([]uint32, (dim+width-1)/width)}
}

// Get returns the i-th entry. It panics if i is out of range.
func (v *RowVector) Get(i int) float64 {
	v.check(i)
	if s := v.slot[i/v.width]; s != 0 {
		r := &v.runs[s-1]
		if p, ok := r.find(i); ok {
			return r.val[p]
		}
	}
	return 0
}

// Add adds x to the i-th entry. As with Vector.Add, an entry that becomes
// exactly zero is removed and adding zero to an absent entry stores nothing.
func (v *RowVector) Add(i int, x float64) {
	v.check(i)
	row := i / v.width
	s := v.slot[row]
	if s == 0 {
		if x == 0 {
			return
		}
		v.runs = append(v.runs, span{})
		s = uint32(len(v.runs))
		v.slot[row] = s
	}
	r := &v.runs[s-1]
	p, ok := r.find(i)
	if !ok {
		if x != 0 {
			r.insertAt(p, i, x, &v.sh)
			v.nnz++
		}
		return
	}
	if nx := r.val[p] + x; nx != 0 {
		r.val[p] = nx
	} else {
		r.removeAt(p)
		v.nnz--
	}
}

// Dim returns the dimension of the vector.
func (v *RowVector) Dim() int { return v.dim }

// NNZ returns the number of stored non-zero entries.
func (v *RowVector) NNZ() int { return v.nnz }

// each calls f for every row that has a run, in index order.
func (v *RowVector) each(f func(r *span)) {
	for _, s := range v.slot {
		if s != 0 {
			f(&v.runs[s-1])
		}
	}
}

// Vector returns the entries as one sparse vector, in index order.
func (v *RowVector) Vector() *Vector {
	out := &Vector{dim: v.dim, idx: make([]int, 0, v.nnz), val: make([]float64, 0, v.nnz)}
	v.each(func(r *span) {
		out.idx = append(out.idx, r.idx...)
		out.val = append(out.val, r.val...)
	})
	return out
}

// Rows returns the vector cut into rows of the given width, the inverse of
// RowVector.Vector. The rows are slices of v's own storage, which the
// returned vector reuses as they grow, so v must not be used afterwards.
func (v *Vector) Rows(width int) *RowVector {
	out := NewRowVector(v.dim, width)
	for lo := 0; lo < len(v.idx); {
		row := v.idx[lo] / width
		hi := lo + sort.SearchInts(v.idx[lo:], (row+1)*width)
		// Full slice expressions: a row that grows reallocates instead of
		// writing into its neighbour.
		out.runs = append(out.runs, span{idx: v.idx[lo:hi:hi], val: v.val[lo:hi:hi]})
		out.slot[row] = uint32(len(out.runs))
		lo = hi
	}
	out.nnz = len(v.idx)
	out.sh.idx.held, out.sh.val.held = 8*cap(v.idx), 8*cap(v.val)
	return out
}

// ResidentBytes is what the vector holds in memory: one slot per row, a
// header per run, and the arrays of its runs — the capacity they grew
// into, and the outgrown arrays kept for reuse.
func (v *RowVector) ResidentBytes() int {
	return 4*len(v.slot) + int(unsafe.Sizeof(span{}))*cap(v.runs) + v.sh.idx.held + v.sh.val.held
}

func (v *RowVector) check(i int) {
	if i < 0 || i >= v.dim {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, v.dim))
	}
}
