package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
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

func (l *span) insertAt(p, i int, x float64, sh *shelves) {
	l.idx = insert(&sh.idx, l.idx, p, i)
	l.val = insert(&sh.val, l.val, p, x)
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

// shelf keeps the arrays a container's lists outgrew, by capacity class
// (class c: capacity ≥ 1<<c; no list outgrows a Dim, capped at 2²⁷), for
// the next list that grows into that class. No array is ever dropped, so
// held — every array the lists were given, and the shelf's headers — is
// what they and the shelf hold.
type shelf[E any] struct {
	kept [32][][]E
	held int
}

// shelves are a container's shelves for sorted rows.
type shelves struct {
	idx shelf[int]
	val shelf[float64]
}

// insert returns s with x inserted at p. A full s moves to an array of the
// next power-of-two capacity, taken from the shelf when one is kept there,
// and its own array is shelved in the class its capacity reaches.
func insert[E any](sh *shelf[E], s []E, p int, x E) []E {
	if len(s) == cap(s) {
		c := bits.Len(uint(cap(s)))
		var next []E
		if k := len(sh.kept[c]); k > 0 {
			next, sh.kept[c] = sh.kept[c][k-1][:len(s)], sh.kept[c][:k-1]
		} else {
			next = make([]E, len(s), 1<<c)
			sh.held += int(unsafe.Sizeof(x)) << c
		}
		copy(next, s)
		if cap(s) > 0 {
			n := cap(sh.kept[c-1])
			sh.kept[c-1] = append(sh.kept[c-1], s[:0])
			sh.held += int(unsafe.Sizeof(s)) * (cap(sh.kept[c-1]) - n)
		}
		s = next
	}
	s = s[:len(s)+1]
	copy(s[p+1:], s[p:])
	s[p] = x
	return s
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
// value write. An index's row and member list make up its record, which
// appears when the index is first written; diagonal flags and record
// numbers sit in a page table, so the matrix costs what it stores, not what
// it spans. A record also holds the index's cells of the learner's two
// vectors z and θ = B·z (see Z and Theta): all three have the actions
// taken as their support (paper §5.2, Figure 7), so one record serves each.
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

	// pages holds, in fixed-size pages, each index's diagonal flag and the
	// number of its record in recs — row i's entries, column i's member
	// rows, z's and θ's cells — which appears when the index is first
	// written; an index with no record reads as "empty row, empty column,
	// zero cells", and an unwritten page as that plus "implicit diagonal".
	// See page.
	pages pageTable[page]
	recs  pool[record]
	// Arrays B's rows and member lists outgrew, for the next to grow.
	sh      shelves
	members shelf[int32]
	// nnz counts materialised entries incrementally so NNZ() is O(1); it
	// is read on every Megh.Decide (nnzHistory, metrics, trace).
	nnz int

	// Scratch buffers reused across ShermanMorrisonBasis calls so the hot
	// update path allocates only when a buffer grows past its high-water
	// mark.
	colA      span // snapshot of column a, pre-scaled by 1/den
	colARaw   span // snapshot of column a as stored (unscaled)
	colANew   span // column a after the update (see AddThetaNewCol)
	rowA      span // snapshot of row a (implicit diagonal included)
	rowB      span // snapshot of row b (implicit diagonal included)
	vmRow     span // vᵀM = row_a − γ·row_b
	colIns    []ij // entries materialised by the in-flight update
	colDel    []ij // entries vanished during the in-flight update
	diagFlips []int
	// The records of the entries AppendCol last appended, nil for a
	// spliced-in implicit diagonal, and of colA's and colANew's entries:
	// the θ scatters write through them, with no lookup.
	colRecs, colARecs, colANewRecs []*record
}

// ij addresses one matrix cell.
type ij struct{ i, j int }

// record is what the matrix stores about one index i: row i's entries, the
// sorted rows that have a materialised entry in column i (Config caps a Dim
// at 2²⁷, so a row number fits an int32), and cell i of z and of θ.
type record struct {
	row      span
	col      []int32
	z, theta float64
}

// recordChunkShift sizes the chunks records are kept in: 1 024 records of
// 88 bytes, 88 KiB, which is eleven whole 8 KiB pages, so none of an
// allocation is padding (256 would take 22 KiB, rounded up to a 24 KiB size
// class).
const recordChunkShift = 10

// page covers pageSize consecutive indices. rec[k] numbers index base+k's
// record in Matrix.recs, 0 while it has none. Bit k of diag marks row base+k
// as having its implicit diagonal materialised (even if to the same value,
// or to zero — which stores nothing but still overrides the implicit
// entry); a row whose bit is clear still has the implicit entry (i,i) = diag.
type page struct {
	rec  [pageSize]uint32
	diag uint64
}

const _ = uint(64 - pageSize) // diag has a bit per index

// overridden reports whether the page's k-th row has its diagonal bit set.
func (pg *page) overridden(k int) bool { return pg.diag>>uint(k)&1 != 0 }

// emptyRecord is what every index without a record reads as. It is never
// written: writers go through touch. noRecords is the chunk list of a
// record pool that has handed none out: its record 0, all zero, too.
var (
	emptyRecord record
	noRecords   = [][]record{{{}}}
)

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
	return &Matrix{dim: dim, diag: diag, pages: newPageTable[page]((dim+pageMask)>>pageShift, eager),
		recs: pool[record]{shift: recordChunkShift}}
}

// peek returns index i's record for reading, and whether row i's implicit
// diagonal is still in effect.
func (m *Matrix) peek(i int) (*record, bool) {
	return m.onPage(m.pages.peek(i>>pageShift), i)
}

// onPage is peek for an index whose page is pg, nil while unwritten.
func (m *Matrix) onPage(pg *page, i int) (*record, bool) {
	if pg == nil || pg.rec[i&pageMask] == 0 {
		return &emptyRecord, pg == nil || !pg.overridden(i&pageMask)
	}
	return m.recs.at(pg.rec[i&pageMask]), !pg.overridden(i & pageMask)
}

// touch returns index i's record for writing, numbering it (and allocating
// its page) on first use.
func (m *Matrix) touch(i int) *record {
	n := &m.pages.touch(i >> pageShift).rec[i&pageMask]
	if *n == 0 {
		*n = m.recs.add()
	}
	return m.recs.at(*n)
}

// eachRecord calls f for every index that has a record, in index order.
func (m *Matrix) eachRecord(f func(i int, r *record)) {
	m.pages.each(func(p int, pg *page) {
		for k, n := range pg.rec {
			if n != 0 {
				f(p<<pageShift+k, m.recs.at(n))
			}
		}
	})
}

// setDiag marks row i's implicit diagonal as overridden.
func (m *Matrix) setDiag(i int) {
	m.pages.touch(i >> pageShift).diag |= 1 << (uint(i) & pageMask)
}

// ResidentBytes is what the matrix holds in memory: the page table, the
// pages and record chunks allocated so far (z's and θ's cells among them),
// and the arrays of its rows and member lists — the capacity they grew
// into, and the outgrown arrays kept for reuse.
func (m *Matrix) ResidentBytes() int {
	return m.pages.residentBytes() + m.recs.residentBytes() + m.sh.idx.held + m.sh.val.held + m.members.held
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
	rec, implicit := m.peek(i)
	if p, ok := rec.row.find(j); ok {
		return rec.row.val[p]
	}
	if i == j && implicit {
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
	p, _ := slices.BinarySearch(r.col, int32(i))
	r.col = insert(&m.members, r.col, p, int32(i))
}

// colRemove drops row i from column j's membership.
func (m *Matrix) colRemove(j, i int) {
	r := m.touch(j)
	p, _ := slices.BinarySearch(r.col, int32(i))
	r.col = slices.Delete(r.col, p, p+1)
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
	rec, implicit := m.peek(i)
	r := &rec.row
	if !implicit {
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
// a Vector (the Megh θ-update path does this twice per transition). It
// resolves the entries' records into the matrix's scratch (colRecs), so it
// must not run concurrently with itself either.
func (m *Matrix) AppendCol(j int, idx []int, val []float64) ([]int, []float64) {
	m.check(0, j)
	rec, implicit := m.peek(j)
	// The member rows ascend, so each page is looked up once per run of
	// rows on it; a member row holds an entry, so its page and its record
	// exist. The records are resolved before any row is read, so the
	// loads of one row do not wait for those of the row before.
	cur, pg := -1, (*page)(nil)
	m.colRecs = m.colRecs[:0]
	for _, i := range rec.col {
		if p := int(i) >> pageShift; p != cur {
			cur, pg = p, m.pages.peek(p)
		}
		m.colRecs = append(m.colRecs, m.recs.at(pg.rec[i&pageMask]))
	}
	splice := len(rec.col) // where the implicit diagonal goes, if it does
	for k, i32 := range rec.col {
		i := int(i32)
		if implicit && i > j {
			idx = append(idx, j)
			val = append(val, m.diag)
			implicit, splice = false, k
		}
		r := &m.colRecs[k].row
		p, _ := r.find(j)
		idx = append(idx, i)
		val = append(val, r.val[p])
	}
	if implicit {
		idx = append(idx, j)
		val = append(val, m.diag)
	}
	if implicit || splice < len(rec.col) {
		m.colRecs = slices.Insert(m.colRecs, splice, nil)
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
		rec, implicit := m.peek(j)
		for _, i := range rec.col {
			r, _ := m.peek(int(i))
			p, _ := r.row.find(j)
			out.Add(int(i), r.row.val[p]*xj)
		}
		if implicit {
			out.Add(j, m.diag*xj)
		}
		return true
	})
	return out
}

// Z returns z's cell i: 0 where i has no record.
func (m *Matrix) Z(i int) float64 {
	m.check(i, i)
	rec, _ := m.peek(i)
	return rec.z
}

// AddZ adds x to z's cell i, numbering i's record if it has none. A cell
// that reaches exactly zero reads, and packs, as absent.
func (m *Matrix) AddZ(i int, x float64) {
	m.check(i, i)
	m.touch(i).z += x
}

// Theta returns θ's cell i: 0 where i has no record.
func (m *Matrix) Theta(i int) float64 {
	m.check(i, i)
	rec, _ := m.peek(i)
	return rec.theta
}

// GatherMin copies θ[base+idx[k]] into dst[k] for every k and returns the
// minimum gathered value: the Q values of one VM's feasible hosts. dst must
// have length len(idx). An index with no record — an action never taken,
// 91–99 % of a trained row — has record number 0, and record 0 is never
// handed out: it is loaded as the zero it holds, so the loop does not
// branch on which actions were taken. The minimum uses the strict-less,
// first-wins comparison sequence of the scalar `if q < min` loop, which the
// scan's bitwise identity rests on. idx is ascending, so a page is looked
// up once per run of hosts on it.
func (m *Matrix) GatherMin(dst []float64, base int, idx []int) float64 {
	dst = dst[:len(idx)]
	min := math.Inf(1)
	var pg *page // nil while the current page is unwritten
	cur := -1
	recs := m.recs.chunks // held here: the stores to dst could alias m
	if len(recs) == 0 {
		recs = noRecords
	}
	for k, i := range idx {
		a := base + i
		if p := a >> pageShift; p != cur {
			pg, cur = m.pages.peek(p), p
		}
		var q float64
		if pg != nil {
			n := pg.rec[a&pageMask]
			q = recs[n>>recordChunkShift][n&(1<<recordChunkShift-1)].theta
		}
		dst[k] = q
		if q < min {
			min = q
		}
	}
	return min
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
	// kept too: AddThetaScaledCol/AddThetaNewCol read it back, through the
	// records AppendCol resolved, without re-walking the column index.
	m.colARaw.reset()
	m.colARaw.idx, m.colARaw.val = m.AppendCol(a, m.colARaw.idx, m.colARaw.val)
	m.colA.reset()
	m.colARecs = m.colARecs[:0]
	for k, i := range m.colARaw.idx {
		if x := m.colARaw.val[k] * inv; x != 0 {
			m.colA.push(i, x)
			m.colARecs = append(m.colARecs, m.colRecs[k])
		}
	}

	// Row pass: for each i in col_a's support, row_i ← row_i − aᵢ·vm,
	// in place. Structural changes (entries appearing or vanishing) are
	// collected and applied to the column index afterwards.
	m.colIns = m.colIns[:0]
	m.colDel = m.colDel[:0]
	m.diagFlips = m.diagFlips[:0]
	// The rows ascend, so each page is looked up once per run of rows on
	// it. A page the pass hands out stays nil here for the rest of its run:
	// it held no record before, and the pass numbers only the record of the
	// row it is rewriting.
	cur, pg := -1, (*page)(nil)
	for k, i := range m.colA.idx {
		if p := i >> pageShift; p != cur {
			cur, pg = p, m.pages.peek(p)
		}
		m.updateRowInPlace(i, pg, m.colA.val[k], vm)
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
	m.colANewRecs = m.colANewRecs[:0]
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
			m.colANewRecs = append(m.colANewRecs, m.colRecs[k])
		}
	}
	return den, nil
}

// AddThetaScaledCol performs θ[i] += s·x for every entry (i, x) of column
// a as it was immediately before the last successful ShermanMorrisonBasis
// call, pre-scaled by 1/den — the vector (M·u)/den the update subtracted a
// multiple of, exact zeros omitted — in ascending i, and returns Σ (s·x)²
// accumulated one term at a time in the same order: the squared-delta sum
// the learning-health layer feeds its θ-drift EWMA.
func (m *Matrix) AddThetaScaledCol(s float64) float64 {
	return m.addTheta(&m.colA, m.colARecs, s)
}

// AddThetaNewCol is AddThetaScaledCol along column a as it is immediately
// after the last successful update, bitwise identical to the stored
// entries (exact zeros omitted).
func (m *Matrix) AddThetaNewCol(s float64) float64 {
	return m.addTheta(&m.colANew, m.colANewRecs, s)
}

// addTheta adds s·col to θ through the column's records, numbering a's —
// the one entry that may have none, a spliced-in implicit diagonal — when
// it is written. Records never move, so those the update resolved are
// still where it found them.
func (m *Matrix) addTheta(col *span, recs []*record, s float64) float64 {
	var dsq float64
	for k, x := range col.val {
		r := recs[k]
		if r == nil {
			r = m.touch(col.idx[k])
		}
		d := s * x
		r.theta += d
		dsq += d * d
	}
	return dsq
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
// changes are queued on m.colIns/m.colDel/m.diagFlips for the caller. pg
// is row i's page, nil while unwritten.
func (m *Matrix) updateRowInPlace(i int, pg *page, ai float64, delta *span) {
	rec, implicitDiag := m.onPage(pg, i) // numbered when its first entry materialises
	r := &rec.row
	tol := m.dropTol
	ridx, rval := r.idx, r.val
	didx, dval := delta.idx, delta.val
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
		if rec == &emptyRecord {
			rec = m.touch(i)
			r = &rec.row
		}
		r.insertAt(p, j, nv, &m.sh)
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
	m.eachRecord(func(i int, r *record) {
		for q, j := range r.row.idx {
			ts = append(ts, Triplet{Row: i, Col: j, Val: r.row.val[q]})
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
		rec, implicit := m.peek(i)
		if implicit {
			d[i][i] = m.diag
		}
		r := &rec.row
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
