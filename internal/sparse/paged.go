package sparse

import (
	"fmt"
	"math"
)

// PagedVector is a dense real vector held in the same fixed-size pages as
// Matrix: a page is allocated when one of its cells is first written, and
// until then reads as zeros. Reads and writes are plain indexed loads and
// stores — no search — so it costs a dense vector's time and a sparse
// vector's space.
//
// It holds the Megh learner's θ = B·z, the dense mirror of Q values the
// decide path reads once per candidate × host: of its N·M cells only the
// neighbourhoods of actions that were ever taken are written. Like Matrix it
// is allocated whole when it fits eagerIndices and page by page above that.
type PagedVector struct {
	dim   int
	pages pageTable[[pageSize]float64]
}

// NewPagedVector returns an all-zero vector of the given dimension.
func NewPagedVector(dim int) *PagedVector {
	return newPagedVector(dim, dim <= eagerIndices)
}

// newPagedVector is NewPagedVector with the page policy explicit: eager
// carves every page from one allocation now, otherwise pages appear on
// first write.
func newPagedVector(dim int, eager bool) *PagedVector {
	if dim < 0 {
		panic(fmt.Sprintf("sparse: negative paged vector dimension %d", dim))
	}
	return &PagedVector{dim: dim, pages: newPageTable[[pageSize]float64]((dim+pageMask)>>pageShift, eager)}
}

// Dim returns the dimension of the vector.
func (v *PagedVector) Dim() int { return v.dim }

// At returns the i-th cell; i must be in [0, Dim).
func (v *PagedVector) At(i int) float64 {
	if pg := v.pages.peek(i >> pageShift); pg != nil {
		return pg[i&pageMask]
	}
	return 0
}

// Set assigns the i-th cell.
func (v *PagedVector) Set(i int, x float64) {
	v.check(i)
	v.pages.touch(i >> pageShift)[i&pageMask] = x
}

// AddScaled performs cell[idx[k]] += s·val[k] for every k in order, and
// returns Σ (s·val[k])² accumulated one term at a time in the same order —
// the squared-delta sum the learning-health layer feeds its θ-drift EWMA.
// Duplicate indices accumulate sequentially. idx is normally ascending (a
// matrix column), so the page is looked up once per run of indices on it.
func (v *PagedVector) AddScaled(idx []int, val []float64, s float64) float64 {
	val = val[:len(idx)]
	var (
		pg  *[pageSize]float64
		cur = -1
		dsq float64
	)
	for k, i := range idx {
		v.check(i)
		if p := i >> pageShift; p != cur {
			pg, cur = v.pages.touch(p), p
		}
		d := s * val[k]
		pg[i&pageMask] += d
		dsq += d * d
	}
	return dsq
}

// GatherMin copies cell[base+idx[k]] into dst[k] for every k and returns the
// minimum gathered value: the Q values of one VM's feasible hosts, pulled
// out of θ. dst must have length len(idx). The minimum uses the strict-less,
// first-wins comparison sequence of the scalar `if q < min` loop, which the
// scanRow kernels' bitwise identity rests on. idx is ascending, so the page
// is looked up once per run of hosts on it.
func (v *PagedVector) GatherMin(dst []float64, base int, idx []int) float64 {
	dst = dst[:len(idx)]
	min := math.Inf(1)
	var pg *[pageSize]float64 // nil while the current page is unwritten
	cur := -1
	for k, i := range idx {
		a := base + i
		if p := a >> pageShift; p != cur {
			pg, cur = v.pages.peek(p), p
		}
		var q float64
		if pg != nil {
			q = pg[a&pageMask]
		}
		dst[k] = q
		if q < min {
			min = q
		}
	}
	return min
}

// Vector returns the non-zero cells as a sparse vector, in index order.
// Only allocated pages are walked.
func (v *PagedVector) Vector() *Vector {
	out := NewVector(v.dim)
	v.pages.each(func(p int, pg *[pageSize]float64) {
		for k, x := range pg {
			if x != 0 {
				out.idx = append(out.idx, p<<pageShift+k)
				out.val = append(out.val, x)
			}
		}
	})
	return out
}

// Paged returns the vector in paged dense form, the inverse of
// PagedVector.Vector.
func (v *Vector) Paged() *PagedVector {
	out := NewPagedVector(v.dim)
	out.AddScaled(v.idx, v.val, 1) // 0 + 1·x is x exactly
	return out
}

// ResidentBytes is what the vector holds in memory: its page table and the
// pages allocated so far.
func (v *PagedVector) ResidentBytes() int {
	return v.pages.residentBytes()
}

func (v *PagedVector) check(i int) {
	if i < 0 || i >= v.dim {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, v.dim))
	}
}
