package sparse

import (
	"fmt"
	"math"
	"sort"
)

// span is one sorted sparse row: parallel index/value slices kept in
// ascending index order. Gets are binary searches, inserts are amortised
// memmoves, and iteration is deterministic.
type span struct {
	idx []int
	val []float64
}

func (l *span) find(i int) (int, bool) {
	p := sort.SearchInts(l.idx, i)
	return p, p < len(l.idx) && l.idx[p] == i
}

func (l *span) insertAt(p, i int, x float64) {
	l.idx = append(l.idx, 0)
	copy(l.idx[p+1:], l.idx[p:])
	l.idx[p] = i
	l.val = append(l.val, 0)
	copy(l.val[p+1:], l.val[p:])
	l.val[p] = x
}

func (l *span) removeAt(p int) {
	l.idx = append(l.idx[:p], l.idx[p+1:]...)
	l.val = append(l.val[:p], l.val[p+1:]...)
}

func (l *span) reset() {
	l.idx = l.idx[:0]
	l.val = l.val[:0]
}

func (l *span) push(i int, x float64) {
	l.idx = append(l.idx, i)
	l.val = append(l.val, x)
}

// Matrix is a square sparse matrix stored as index-sorted slice-backed rows
// plus a membership-only column index, with an *implicit* scaled identity: a
// fresh Matrix of dimension d with initial diagonal value c behaves exactly
// like c·I, but stores nothing until entries are written.
//
// Values live in the rows only; column j's member list names (sorted) the
// rows that have a materialised entry in column j. A rank-1 update therefore
// rewrites each touched row in place and adjusts the column index only for
// the few entries that materialise or vanish, instead of mirroring every
// value write. Rows, member lists and diagonal flags sit in a page table
// whose pages appear on first write, so the matrix costs what it stores, not
// what it spans.
//
// This mirrors the B = (1/δ)·I initialisation of Megh (Algorithm 1, line 2):
// the matrix starts as a huge scaled identity of which only the entries
// touched by migrations are ever materialised.
//
// Every iteration over stored entries runs in ascending index order, so
// floating-point accumulation order is fixed: two identical update sequences
// produce bit-identical matrices, in any process.
//
// Matrix is not safe for concurrent mutation.
type Matrix struct {
	dim  int
	diag float64 // implicit value of unmaterialised diagonal entries
	// dropTol, when positive, makes the matrix treat entries with
	// |x| < dropTol as exact zeros. Rank-1 updates produce cascades of
	// numerically negligible fill-in (products of already-tiny
	// off-diagonal entries); dropping them keeps the Q-table's growth
	// linear in the number of migrations, which is the behaviour the
	// paper reports in Figure 7.
	dropTol float64

	// pages holds one record per index — row i's entries, column i's
	// member rows, row i's diagonal flag — in fixed-size pages; an unwritten
	// page reads as "empty row, empty column, implicit diagonal". See page.
	pages pageTable[page]
	// nnz counts materialised entries incrementally so NNZ() is O(1); it
	// is read on every Megh.Decide (nnzHistory, metrics, trace).
	nnz int

	// Scratch buffers reused across ShermanMorrisonBasis calls so the hot
	// update path allocates only when a buffer grows past its high-water
	// mark.
	colA      span // snapshot of column a, pre-scaled by 1/den
	colARaw   span // snapshot of column a as stored (unscaled)
	colANew   span // column a after the update (see LastUpdateNewCol)
	rowA      span // snapshot of row a (implicit diagonal included)
	rowB      span // snapshot of row b (implicit diagonal included)
	vmRow     span // vᵀM = row_a − γ·row_b
	colIns    []ij // entries materialised by the in-flight update
	colDel    []ij // entries vanished during the in-flight update
	diagFlips []int
}

// ij addresses one matrix cell.
type ij struct{ i, j int }

// record is what the matrix stores about one index i: row i's entries, and
// the sorted rows that have a materialised entry in column i.
type record struct {
	row span
	col []int
}

// page is pageSize consecutive records. Bit k of diag marks row base+k as
// having its implicit diagonal materialised (even if to the same value, or
// to zero — which stores nothing but still overrides the implicit entry);
// a row whose bit is clear still has the implicit entry (i,i) = diag.
type page struct {
	recs [pageSize]record
	diag uint64
}

const _ = uint(64 - pageSize) // diag has a bit per record

// overridden reports whether the page's k-th row has its diagonal bit set.
func (pg *page) overridden(k int) bool { return pg.diag>>uint(k)&1 != 0 }

// emptyRecord is what every index of an unwritten page reads as. It is
// never written: writers go through touch.
var emptyRecord record

// NewMatrix returns a d × d matrix equal to diag·I, storing nothing yet.
func NewMatrix(dim int, diag float64) *Matrix {
	return newMatrix(dim, diag, dim <= eagerIndices)
}

// newMatrix is NewMatrix with the page policy explicit: eager carves every
// page from one allocation now, otherwise pages appear on first write.
func newMatrix(dim int, diag float64, eager bool) *Matrix {
	if dim < 0 {
		panic(fmt.Sprintf("sparse: negative matrix dimension %d", dim))
	}
	return &Matrix{dim: dim, diag: diag, pages: newPageTable[page]((dim+pageMask)>>pageShift, eager)}
}

// peek returns index i's record for reading.
func (m *Matrix) peek(i int) *record {
	if pg := m.pages.peek(i >> pageShift); pg != nil {
		return &pg.recs[i&pageMask]
	}
	return &emptyRecord
}

// touch returns index i's record for writing, allocating its page on first
// use.
func (m *Matrix) touch(i int) *record {
	return &m.pages.touch(i >> pageShift).recs[i&pageMask]
}

// diagSet reports whether row i's implicit diagonal has been overridden.
func (m *Matrix) diagSet(i int) bool {
	pg := m.pages.peek(i >> pageShift)
	return pg != nil && pg.overridden(i&pageMask)
}

// setDiag marks row i's implicit diagonal as overridden.
func (m *Matrix) setDiag(i int) {
	m.pages.touch(i >> pageShift).diag |= 1 << (uint(i) & pageMask)
}

// ResidentBytes is what the matrix holds in memory: the page table, the
// pages allocated so far and three words per stored entry (its column
// index, its value, its slot in the column's member list).
func (m *Matrix) ResidentBytes() int {
	return m.pages.residentBytes() + 24*m.nnz
}

// Dim returns the matrix dimension.
func (m *Matrix) Dim() int { return m.dim }

// Diag returns the value of the implicit diagonal entries.
func (m *Matrix) Diag() float64 { return m.diag }

// DropTolerance returns the tolerance SetDropTolerance set.
func (m *Matrix) DropTolerance() float64 { return m.dropTol }

// NNZ returns the number of *materialised* non-zero entries, maintained
// incrementally (O(1)). The implicit identity is excluded: this is the
// quantity the paper plots in Figure 7 (growth of the Q-table with time),
// which starts near zero and grows with the number of executed migrations.
func (m *Matrix) NNZ() int { return m.nnz }

// Get returns entry (i,j), including the implicit diagonal.
func (m *Matrix) Get(i, j int) float64 {
	m.check(i, j)
	r := &m.peek(i).row
	if p, ok := r.find(j); ok {
		return r.val[p]
	}
	if i == j && !m.diagSet(i) {
		return m.diag
	}
	return 0
}

// SetDropTolerance makes the matrix discard entries with |x| < tol on
// write. Passing 0 restores exact arithmetic. It panics on negative tol.
func (m *Matrix) SetDropTolerance(tol float64) {
	if tol < 0 {
		panic(fmt.Sprintf("sparse: negative drop tolerance %g", tol))
	}
	m.dropTol = tol
}

// colInsert records row i as a member of column j.
func (m *Matrix) colInsert(j, i int) {
	r := m.touch(j)
	c := r.col
	p := sort.SearchInts(c, i)
	c = append(c, 0)
	copy(c[p+1:], c[p:])
	c[p] = i
	r.col = c
}

// colRemove drops row i from column j's membership.
func (m *Matrix) colRemove(j, i int) {
	r := m.touch(j)
	p := sort.SearchInts(r.col, i)
	r.col = append(r.col[:p], r.col[p+1:]...)
}

// Row returns row i as a sparse vector (a copy, including the implicit
// diagonal entry if still in effect).
func (m *Matrix) Row(i int) *Vector {
	m.check(i, 0)
	v := &Vector{dim: m.dim}
	v.idx, v.val = m.appendRow(i, v.idx, v.val)
	return v
}

// appendRow appends row i's entries — ascending column order, implicit
// diagonal spliced in when still in effect — onto idx/val.
func (m *Matrix) appendRow(i int, idx []int, val []float64) ([]int, []float64) {
	r := &m.peek(i).row
	if m.diagSet(i) {
		return append(idx, r.idx...), append(val, r.val...)
	}
	p := sort.SearchInts(r.idx, i)
	idx = append(idx, r.idx[:p]...)
	val = append(val, r.val[:p]...)
	idx = append(idx, i)
	val = append(val, m.diag)
	idx = append(idx, r.idx[p:]...)
	val = append(val, r.val[p:]...)
	return idx, val
}

// AppendCol appends column j's entries — in ascending row order, with the
// implicit diagonal spliced in when still in effect — onto idx/val and
// returns the extended slices. Values are fetched from the owning rows
// (binary search each), so the cost is O(nnz(col)·log nnz(row)). It lets
// callers snapshot a column into reusable scratch buffers without allocating
// a Vector (the Megh θ-update path does this twice per transition).
func (m *Matrix) AppendCol(j int, idx []int, val []float64) ([]int, []float64) {
	m.check(0, j)
	implicit := !m.diagSet(j)
	// The member rows ascend, so each page is looked up once per run of
	// rows on it; a member row holds an entry, so its page exists.
	cur, pg := -1, (*page)(nil)
	for _, i := range m.peek(j).col {
		if implicit && i > j {
			idx = append(idx, j)
			val = append(val, m.diag)
			implicit = false
		}
		if p := i >> pageShift; p != cur {
			cur, pg = p, m.pages.peek(p)
		}
		r := &pg.recs[i&pageMask].row
		p, _ := r.find(j)
		idx = append(idx, i)
		val = append(val, r.val[p])
	}
	if implicit {
		idx = append(idx, j)
		val = append(val, m.diag)
	}
	return idx, val
}

// MulVec returns M·x as a sparse vector. Cost is proportional to the support
// of x times the density of the touched columns, plus the implicit diagonal
// contribution (one entry per non-zero of x).
func (m *Matrix) MulVec(x *Vector) *Vector {
	if x.Dim() != m.dim {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %d vs %d", m.dim, x.Dim()))
	}
	out := NewVector(m.dim)
	x.Range(func(j int, xj float64) bool {
		for _, i := range m.peek(j).col {
			r := &m.peek(i).row
			p, _ := r.find(j)
			out.Add(i, r.val[p]*xj)
		}
		if !m.diagSet(j) {
			out.Add(j, m.diag*xj)
		}
		return true
	})
	return out
}

// ErrSingularUpdate is returned by the Sherman–Morrison kernels when the
// rank-1 update would make the matrix singular (denominator too close to
// zero).
var ErrSingularUpdate = fmt.Errorf("sparse: sherman-morrison denominator is numerically zero")

// ShermanMorrisonBasis applies the rank-1 inverse update
//
//	M ← M − (M·u)(vᵀ·M) / (1 + vᵀ·M·u)
//
// in place — the Sherman–Morrison formula for maintaining M = A⁻¹ under
// A ← A + u·vᵀ (paper Eq. 11) — for the shape every Megh transition has
// (Eq. 10): u = e_a and v = e_a − γ·e_b. It returns the denominator
// 1 + vᵀMu. The structure collapses the two matrix-vector products into
// reads:
//
//	M·u  = column a of M
//	vᵀ·M = row_a − γ·row_b        (a merge of two sorted rows)
//	den  = 1 + (vᵀM)[a]
//
// and the outer-product subtraction into in-place rewrites of the touched
// rows: existing entries are updated where they sit, and only the few
// entries that materialise or vanish pay a memmove plus a column-index
// adjustment. Everything runs through scratch buffers owned by the matrix —
// no Vector allocations and no generic dispatch. For a == b the update is
// u = e_a, v = (1−γ)·e_a.
//
// A numerically zero denominator leaves the matrix unchanged and returns
// ErrSingularUpdate. The tests cross-check the kernel against the fully
// general ShermanMorrison(u, v) kept in oracle_test.go.
func (m *Matrix) ShermanMorrisonBasis(a, b int, gamma float64) (float64, error) {
	return m.ShermanMorrisonBasisScaled(a, b, gamma, 1)
}

// ShermanMorrisonBasisScaled is ShermanMorrisonBasis with a scaled v:
// u = e_a, v = scale·(e_a − γ·e_b). One call with scale = n maintains the
// inverse of T + n·e_a(e_a − γ·e_b)ᵀ, i.e. it folds n repetitions of the
// same Megh transition into a single kernel pass. The learner applies one
// transition at a time through ShermanMorrisonBasis.
//
// scale = 1 reproduces ShermanMorrisonBasis bit for bit: every extra
// multiply the scaling introduces is by exactly 1.0, an identity in
// IEEE-754, so the decide path keeps its determinism contract.
// A non-finite or zero scale is rejected (zero would be a no-op update
// that still invalidated the column snapshots).
func (m *Matrix) ShermanMorrisonBasisScaled(a, b int, gamma, scale float64) (float64, error) {
	m.check(a, b)
	if scale == 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return 0, fmt.Errorf("sparse: sherman-morrison scale %g must be finite and non-zero", scale)
	}
	vm := &m.vmRow
	m.buildVMRow(a, b, gamma, scale)

	vma, vmaOK := 0.0, false
	if p, ok := vm.find(a); ok {
		vma, vmaOK = vm.val[p], true
	}
	den := 1 + vma
	if math.Abs(den) < 1e-12 {
		return den, ErrSingularUpdate
	}
	inv := 1 / den

	// Snapshot column a — the update rewrites rows a and b, so both
	// factors of the outer product must be taken before any mutation.
	// Pre-scaling by 1/den makes every delta a single multiply. Exact
	// zeros (an implicit diagonal of 0) are dropped, matching what the
	// generic path's Vector accumulation stores. The unscaled snapshot is
	// kept too: LastUpdateScaledCol/LastUpdateNewCol serve it back to the
	// θ-maintenance path without re-walking the column index.
	m.colARaw.reset()
	m.colARaw.idx, m.colARaw.val = m.AppendCol(a, m.colARaw.idx, m.colARaw.val)
	m.colA.reset()
	for k, i := range m.colARaw.idx {
		if x := m.colARaw.val[k] * inv; x != 0 {
			m.colA.push(i, x)
		}
	}

	// Row pass: for each i in col_a's support, row_i ← row_i − aᵢ·vm,
	// in place. Structural changes (entries appearing or vanishing) are
	// collected and applied to the column index afterwards.
	m.colIns = m.colIns[:0]
	m.colDel = m.colDel[:0]
	m.diagFlips = m.diagFlips[:0]
	for k, i := range m.colA.idx {
		m.updateRowInPlace(i, m.colA.val[k], vm)
	}
	for _, e := range m.colDel {
		m.colRemove(e.j, e.i)
	}
	for _, e := range m.colIns {
		m.colInsert(e.j, e.i)
	}
	// Diagonal overrides flip only after the pass has read the original
	// state for every row.
	for _, i := range m.diagFlips {
		m.setDiag(i)
	}

	// Reproduce column a's post-update values analytically: the row pass
	// computed each entry (i,a) as old − aᵢ·vm[a] with aᵢ the pre-scaled
	// snapshot value, so replaying the identical products (same operands,
	// same skip/drop rules) yields bitwise-identical results without
	// re-walking the column index.
	m.colANew.reset()
	for k, i := range m.colARaw.idx {
		x := m.colARaw.val[k]
		nv := x
		if ai := x * inv; ai != 0 && vmaOK {
			d := ai * vma
			tol := m.dropTol
			if !(d < tol && d > -tol) {
				nv = x - d
				if nv == 0 || (nv < tol && nv > -tol) {
					continue
				}
			}
		}
		if nv != 0 {
			m.colANew.push(i, nv)
		}
	}
	return den, nil
}

// LastUpdateScaledCol returns column a of the matrix as it was immediately
// before the last successful ShermanMorrisonBasis call, pre-scaled by
// 1/den — i.e. the vector (M·u)/den the update subtracted a multiple of.
// Exact zeros are omitted. The slices are scratch owned by the matrix,
// valid only until the next update.
func (m *Matrix) LastUpdateScaledCol() ([]int, []float64) {
	return m.colA.idx, m.colA.val
}

// LastUpdateNewCol returns column a of the matrix as it is immediately
// after the last successful ShermanMorrisonBasis call, bitwise identical to
// the stored entries (exact zeros omitted). The slices are scratch owned by
// the matrix, valid only until the next update.
func (m *Matrix) LastUpdateNewCol() ([]int, []float64) {
	return m.colANew.idx, m.colANew.val
}

// buildVMRow assembles vᵀM = scale·(row_a − γ·row_b) (implicit diagonals
// included) into m.vmRow, merging the two sorted rows; exact-zero results
// are skipped, matching what the generic path's Add-based accumulation
// stores. With scale == 1 every multiplication by scale (and the folded
// scale·γ factor) is a multiply by exactly 1.0, so the arithmetic — and
// therefore the stored bits — match the historical unscaled kernel.
func (m *Matrix) buildVMRow(a, b int, gamma, scale float64) {
	m.rowA.reset()
	m.rowA.idx, m.rowA.val = m.appendRow(a, m.rowA.idx, m.rowA.val)
	vm := &m.vmRow
	vm.reset()
	if a == b {
		s := scale * (1 - gamma)
		for p, j := range m.rowA.idx {
			if x := s * m.rowA.val[p]; x != 0 {
				vm.push(j, x)
			}
		}
		return
	}
	// Materialised entries are never zero, but the spliced-in implicit
	// diagonal can be when diag == 0; every push below guards against
	// storing exact zeros.
	m.rowB.reset()
	m.rowB.idx, m.rowB.val = m.appendRow(b, m.rowB.idx, m.rowB.val)
	ra, rb := &m.rowA, &m.rowB
	g := scale * gamma
	p, q := 0, 0
	for p < len(ra.idx) && q < len(rb.idx) {
		switch {
		case ra.idx[p] < rb.idx[q]:
			if x := scale * ra.val[p]; x != 0 {
				vm.push(ra.idx[p], x)
			}
			p++
		case ra.idx[p] > rb.idx[q]:
			if x := -g * rb.val[q]; x != 0 {
				vm.push(rb.idx[q], x)
			}
			q++
		default:
			if x := scale*ra.val[p] - g*rb.val[q]; x != 0 {
				vm.push(ra.idx[p], x)
			}
			p++
			q++
		}
	}
	for ; p < len(ra.idx); p++ {
		if x := scale * ra.val[p]; x != 0 {
			vm.push(ra.idx[p], x)
		}
	}
	for ; q < len(rb.idx); q++ {
		if x := -g * rb.val[q]; x != 0 {
			vm.push(rb.idx[q], x)
		}
	}
}

// updateRowInPlace applies row_i ← row_i − aᵢ·delta by walking the two
// sorted supports in lockstep. Entries hit by a significant delta are
// rewritten in place; a delta the tolerance deems negligible leaves the
// entry untouched (exactly like the generic path); entries whose new value
// is zero or below tolerance vanish; deltas landing on unmaterialised slots
// (or the still-implicit diagonal) materialise new entries. Structural
// changes are queued on m.colIns/m.colDel/m.diagFlips for the caller.
func (m *Matrix) updateRowInPlace(i int, ai float64, delta *span) {
	pg := m.pages.touch(i >> pageShift)
	r := &pg.recs[i&pageMask].row
	tol := m.dropTol
	ridx, rval := r.idx, r.val
	didx, dval := delta.idx, delta.val
	implicitDiag := !pg.overridden(i & pageMask)
	p := 0
	for q := 0; q < len(didx); q++ {
		d := ai * dval[q]
		if d < tol && d > -tol {
			continue // negligible fill-in: slot stays as it was
		}
		j := didx[q]
		for p < len(ridx) && ridx[p] < j {
			p++
		}
		if p < len(ridx) && ridx[p] == j {
			nv := rval[p] - d
			if nv == 0 || (nv < tol && nv > -tol) {
				r.removeAt(p)
				ridx, rval = r.idx, r.val
				m.nnz--
				m.colDel = append(m.colDel, ij{i, j})
				continue
			}
			rval[p] = nv
			p++
			continue
		}
		// Delta lands on an unmaterialised slot (or the implicit
		// diagonal).
		old := 0.0
		if j == i && implicitDiag {
			old = m.diag
			m.diagFlips = append(m.diagFlips, i)
		}
		nv := old - d
		if nv == 0 || (nv < tol && nv > -tol) {
			continue // result dropped: nothing materialises
		}
		r.insertAt(p, j, nv)
		ridx, rval = r.idx, r.val
		m.nnz++
		m.colIns = append(m.colIns, ij{i, j})
		p++ // step past the entry just inserted
	}
}

// Triplet is one materialised matrix entry in (row, col, value) form — the
// storage representation described in paper §5.2.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Triplets exports the materialised entries sorted by (row, col) — the
// natural storage order, so no sorting pass is needed.
func (m *Matrix) Triplets() []Triplet {
	ts := make([]Triplet, 0, m.nnz)
	m.pages.each(func(p int, pg *page) {
		for k := range pg.recs {
			r := &pg.recs[k].row
			for q, j := range r.idx {
				ts = append(ts, Triplet{Row: p<<pageShift + k, Col: j, Val: r.val[q]})
			}
		}
	})
	return ts
}

// Dense materialises the full matrix (including the implicit diagonal) as a
// dense row-major [dim][dim] slice. Intended for tests on small matrices.
func (m *Matrix) Dense() [][]float64 {
	d := make([][]float64, m.dim)
	for i := range d {
		d[i] = make([]float64, m.dim)
		if !m.diagSet(i) {
			d[i][i] = m.diag
		}
		r := &m.peek(i).row
		for p, j := range r.idx {
			d[i][j] = r.val[p]
		}
	}
	return d
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.dim || j < 0 || j >= m.dim {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %d×%d matrix", i, j, m.dim, m.dim))
	}
}
