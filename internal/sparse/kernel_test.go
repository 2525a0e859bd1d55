package sparse

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// checkMatrixInvariants verifies the structural contract between the two
// indexes: every column-membership entry points at a materialised row entry,
// every row entry is mirrored in the column index, rows are strictly sorted,
// and the incremental NNZ counter matches a full count. Every record handed
// out belongs to exactly one index inside the dimension, and no two lists —
// rows, member lists, or the arrays kept on the shelves — share memory.
func checkMatrixInvariants(t *testing.T, m *Matrix) {
	t.Helper()
	counted, colCount, resident := 0, 0, 0
	owner := map[uint32]int{} // record number → its index
	var arrays []extent
	m.pages.each(func(p int, pg *page) {
		resident++
		for k, n := range pg.rec {
			i := p<<pageShift + k
			if i >= m.dim && (n != 0 || pg.overridden(k)) {
				t.Fatalf("index %d past the dimension %d holds data", i, m.dim)
			}
			if n == 0 {
				continue
			}
			if prev, ok := owner[n]; ok {
				t.Fatalf("indices %d and %d share record %d", prev, i, n)
			}
			owner[n] = i
			rec := m.recs.at(n)
			r := &rec.row
			arrays = append(arrays, extentOf(r.idx, i, "row"), extentOf(r.val, i, "row"), extentOf(rec.col, i, "member list"))
			if len(r.idx) != len(r.val) {
				t.Fatalf("row %d: %d indices vs %d values", i, len(r.idx), len(r.val))
			}
			for q, j := range r.idx {
				if q > 0 && r.idx[q-1] >= j {
					t.Fatalf("row %d not strictly sorted at %d", i, q)
				}
				if r.val[q] == 0 {
					t.Fatalf("row %d stores exact zero at col %d", i, j)
				}
				if col, _ := m.peek(j); !slices.Contains(col.col, int32(i)) {
					t.Fatalf("entry (%d,%d) missing from column index", i, j)
				}
				counted++
			}
			// Here i is a column: its member rows must hold the entry.
			for q, row := range rec.col {
				if q > 0 && rec.col[q-1] >= row {
					t.Fatalf("col %d not strictly sorted at %d", i, q)
				}
				r, _ := m.peek(int(row))
				if _, ok := r.row.find(i); !ok {
					t.Fatalf("column index lists (%d,%d) but the row has no entry", row, i)
				}
				colCount++
			}
		}
	})
	if counted != m.nnz || colCount != m.nnz {
		t.Fatalf("NNZ counter %d, rows hold %d, columns hold %d", m.nnz, counted, colCount)
	}
	if resident != m.pages.used {
		t.Fatalf("page table handed out %d pages, %d are reachable", m.pages.used, resident)
	}
	if len(owner) != m.recs.used {
		t.Fatalf("record pool handed out %d records, %d are reachable", m.recs.used, len(owner))
	}
	arrays = appendShelved(t, arrays, &m.sh.idx)
	arrays = appendShelved(t, arrays, &m.sh.val)
	arrays = appendShelved(t, arrays, &m.members)
	checkDisjoint(t, arrays)
	if emptyRecord.row.idx != nil || emptyRecord.row.val != nil || emptyRecord.col != nil || emptyRecord.z != 0 || emptyRecord.theta != 0 {
		t.Fatal("the shared empty record was written")
	}
}

// extent is the memory [lo, hi) a list's backing array spans from the
// list's first element to its capacity; owner and what name the list.
type extent struct {
	lo, hi uintptr
	owner  int
	what   string
}

func extentOf[E any](s []E, owner int, what string) extent {
	var e E
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return extent{lo: lo, hi: lo + uintptr(cap(s))*unsafe.Sizeof(e), owner: owner, what: what}
}

// appendShelved appends the extents of the arrays kept on sh, each of
// which must be at least as long as its class.
func appendShelved[E any](t *testing.T, l []extent, sh *shelf[E]) []extent {
	t.Helper()
	for c := range sh.kept {
		for _, s := range sh.kept[c] {
			if cap(s) < 1<<c {
				t.Fatalf("shelf class %d keeps an array of capacity %d", c, cap(s))
			}
			l = append(l, extentOf(s, -1, "shelved array"))
		}
	}
	return l
}

// checkDisjoint fails when two of the extents overlap: two lists, or a list
// and a shelved array, writing through one array.
func checkDisjoint(t *testing.T, l []extent) {
	t.Helper()
	l = slices.DeleteFunc(l, func(e extent) bool { return e.lo == e.hi })
	slices.SortFunc(l, func(a, b extent) int { return cmp.Compare(a.lo, b.lo) })
	for k := 1; k < len(l); k++ {
		if l[k].lo < l[k-1].hi {
			t.Fatalf("%s %d and %s %d share memory", l[k-1].what, l[k-1].owner, l[k].what, l[k].owner)
		}
	}
}

// randomSeedMatrix materialises a handful of random entries — including
// diagonals overridden to zero and to fresh values — so update sequences
// start from every storage state the learner can produce.
func randomSeedMatrix(r *rand.Rand, dim int, diag, tol float64, eager bool) *Matrix {
	m := newMatrix(dim, diag, eager)
	m.SetDropTolerance(tol)
	for k := 0; k < dim; k++ {
		switch r.Intn(5) {
		case 0:
			m.Set(r.Intn(dim), r.Intn(dim), r.NormFloat64())
		case 1:
			i := r.Intn(dim)
			m.Set(i, i, 0) // diagonal overridden to zero: stored as absent
		case 2:
			i := r.Intn(dim)
			m.Set(i, i, r.NormFloat64())
		}
	}
	return m
}

// The structure-exploiting kernel must agree with the generic
// Sherman–Morrison path *bitwise* — same denominators, same stored entries,
// same NNZ — over long randomized Megh-shaped sequences, with the drop
// tolerance both off and on, including self-transitions (a == b) and
// matrices pre-seeded with overridden diagonals.
func TestShermanMorrisonBasisMatchesGenericBitwise(t *testing.T) {
	const dim = 16
	const gamma = 0.9
	for _, tol := range []float64{0, 1e-7} {
		r := rand.New(rand.NewSource(7))
		mk := randomSeedMatrix(rand.New(rand.NewSource(3)), dim, 1.0/dim, tol, false)
		mg := randomSeedMatrix(rand.New(rand.NewSource(3)), dim, 1.0/dim, tol, true)
		for it := 0; it < 300; it++ {
			a, b := r.Intn(dim), r.Intn(dim)
			if it%17 == 0 {
				b = a // self-transition: v = (1−γ)·e_a
			}
			u := Basis(dim, a)
			v := Basis(dim, a)
			v.Add(b, -gamma)
			dk, ek := mk.ShermanMorrisonBasis(a, b, gamma)
			dg, eg := mg.ShermanMorrison(u, v)
			if (ek == nil) != (eg == nil) {
				t.Fatalf("tol %g it %d: error mismatch %v vs %v", tol, it, ek, eg)
			}
			if dk != dg {
				t.Fatalf("tol %g it %d: denominator %v vs %v", tol, it, dk, dg)
			}
			if mk.NNZ() != mg.NNZ() {
				t.Fatalf("tol %g it %d: NNZ %d vs %d", tol, it, mk.NNZ(), mg.NNZ())
			}
			dkD, dgD := mk.Dense(), mg.Dense()
			for i := range dkD {
				for j := range dkD[i] {
					if dkD[i][j] != dgD[i][j] {
						t.Fatalf("tol %g it %d: (%d,%d) kernel %v generic %v",
							tol, it, i, j, dkD[i][j], dgD[i][j])
					}
				}
			}
		}
		checkMatrixInvariants(t, mk)
		checkMatrixInvariants(t, mg)
	}
}

// With the tolerance off the kernel is exact: B must track the dense
// Gauss–Jordan inverse of the accumulated T to 1e-9 over a Megh-shaped
// sequence (the same oracle the generic path is tested against).
func TestShermanMorrisonBasisMatchesDenseInverse(t *testing.T) {
	const dim = 10
	const gamma = 0.5
	r := rand.New(rand.NewSource(23))
	delta := float64(dim)
	b := NewMatrix(dim, 1/delta)
	oracle := newDenseOracle(dim, delta)
	for step := 0; step < 60; step++ {
		a := r.Intn(dim)
		nb := r.Intn(dim)
		if step%11 == 0 {
			nb = a
		}
		u := Basis(dim, a)
		v := Basis(dim, a)
		v.Add(nb, -gamma)
		if _, err := b.ShermanMorrisonBasis(a, nb, gamma); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		oracle.update(u, v)
		inv := oracle.inverse(t)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if d := math.Abs(b.Get(i, j) - inv.Get(i, j)); d > 1e-9 {
					t.Fatalf("step %d: B[%d,%d] = %g, dense inverse = %g (|Δ| = %g)",
						step, i, j, b.Get(i, j), inv.Get(i, j), d)
				}
			}
		}
	}
	checkMatrixInvariants(t, b)
}

// Property over random seeds, dimensions and tolerances: kernel and generic
// stay bitwise identical, and the structural invariants hold throughout.
func TestQuickShermanMorrisonBasisMatchesGeneric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 4 + r.Intn(12)
		gamma := 0.1 + 0.8*r.Float64()
		tol := 0.0
		if r.Intn(2) == 0 {
			tol = math.Pow(10, -3-float64(r.Intn(6)))
		}
		mk := randomSeedMatrix(rand.New(rand.NewSource(seed+1)), dim, 1.0/float64(dim), tol, false)
		mg := randomSeedMatrix(rand.New(rand.NewSource(seed+1)), dim, 1.0/float64(dim), tol, true)
		for it := 0; it < 40; it++ {
			a, b := r.Intn(dim), r.Intn(dim)
			u := Basis(dim, a)
			v := Basis(dim, a)
			v.Add(b, -gamma)
			dk, ek := mk.ShermanMorrisonBasis(a, b, gamma)
			dg, eg := mg.ShermanMorrison(u, v)
			if (ek == nil) != (eg == nil) || dk != dg || mk.NNZ() != mg.NNZ() {
				return false
			}
			for i := 0; i < dim; i++ {
				for j := 0; j < dim; j++ {
					if mk.Get(i, j) != mg.Get(i, j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A numerically singular basis update must leave the matrix fully
// unchanged — values, NNZ, column index and diagonal overrides — because
// the learner continues scheduling with the untouched operator.
func TestShermanMorrisonBasisSingularRollback(t *testing.T) {
	const dim = 6
	m := randomSeedMatrix(rand.New(rand.NewSource(9)), dim, 1, 0, false)
	// Engineer den = 1 + vm[a] = 0 for a ≠ b: with row a = −e_a and
	// row b zeroed at column a, vm[a] = B[a,a] = −1.
	a, b := 2, 4
	m.Set(a, a, -1)
	for j := 0; j < dim; j++ {
		m.Set(b, j, 0)
	}
	before := m.Dense()
	nnzBefore := m.NNZ()
	_, err := m.ShermanMorrisonBasis(a, b, 0.5)
	if !errors.Is(err, ErrSingularUpdate) {
		t.Fatalf("err = %v, want ErrSingularUpdate", err)
	}
	if m.NNZ() != nnzBefore {
		t.Fatalf("NNZ changed across rejected update: %d vs %d", m.NNZ(), nnzBefore)
	}
	after := m.Dense()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("entry (%d,%d) mutated by rejected singular update", i, j)
			}
		}
	}
	checkMatrixInvariants(t, m)
}

// The kernel's column snapshots must be exactly what the θ-maintenance path
// needs: LastUpdateScaledCol is the pre-update column a scaled by 1/den,
// and LastUpdateNewCol is bitwise identical to the post-update column
// (exact zeros omitted in both).
func TestShermanMorrisonBasisColumnSnapshots(t *testing.T) {
	const dim = 12
	const gamma = 0.5
	for _, tol := range []float64{0, 1e-6} {
		r := rand.New(rand.NewSource(31))
		m := randomSeedMatrix(rand.New(rand.NewSource(17)), dim, 1.0/dim, tol, false)
		for it := 0; it < 120; it++ {
			a, b := r.Intn(dim), r.Intn(dim)
			var beforeIdx []int
			var beforeVal []float64
			beforeIdx, beforeVal = m.AppendCol(a, beforeIdx, beforeVal)
			den, err := m.ShermanMorrisonBasis(a, b, gamma)
			if err != nil {
				continue
			}
			inv := 1 / den
			sIdx, sVal := m.LastUpdateScaledCol()
			want := map[int]float64{}
			for k, i := range beforeIdx {
				if x := beforeVal[k] * inv; x != 0 {
					want[i] = x
				}
			}
			if len(sIdx) != len(want) {
				t.Fatalf("tol %g it %d: scaled col has %d entries, want %d", tol, it, len(sIdx), len(want))
			}
			for k, i := range sIdx {
				if want[i] != sVal[k] {
					t.Fatalf("tol %g it %d: scaled col[%d] = %v, want %v", tol, it, i, sVal[k], want[i])
				}
			}
			var afterIdx []int
			var afterVal []float64
			afterIdx, afterVal = m.AppendCol(a, afterIdx, afterVal)
			nIdx, nVal := m.LastUpdateNewCol()
			wantNew := map[int]float64{}
			for k, i := range afterIdx {
				if afterVal[k] != 0 {
					wantNew[i] = afterVal[k]
				}
			}
			if len(nIdx) != len(wantNew) {
				t.Fatalf("tol %g it %d: new col has %d entries, want %d", tol, it, len(nIdx), len(wantNew))
			}
			for k, i := range nIdx {
				if wantNew[i] != nVal[k] {
					t.Fatalf("tol %g it %d: new col[%d] = %v, want %v (stored)", tol, it, i, nVal[k], wantNew[i])
				}
			}
		}
		checkMatrixInvariants(t, m)
	}
}

// Updates landing on a diagonal that was explicitly overridden to zero must
// behave identically in both paths (the override blocks the implicit
// identity but stores nothing).
func TestShermanMorrisonBasisDiagonalOverriddenToZero(t *testing.T) {
	const dim = 8
	const gamma = 0.5
	mk := NewMatrix(dim, 1.0/dim)
	mg := NewMatrix(dim, 1.0/dim)
	for i := 0; i < dim; i += 2 {
		mk.Set(i, i, 0)
		mg.Set(i, i, 0)
	}
	r := rand.New(rand.NewSource(41))
	for it := 0; it < 100; it++ {
		a, b := r.Intn(dim), r.Intn(dim)
		u := Basis(dim, a)
		v := Basis(dim, a)
		v.Add(b, -gamma)
		dk, ek := mk.ShermanMorrisonBasis(a, b, gamma)
		dg, eg := mg.ShermanMorrison(u, v)
		if (ek == nil) != (eg == nil) || (ek == nil && dk != dg) {
			t.Fatalf("it %d: kernel (%v,%v) vs generic (%v,%v)", it, dk, ek, dg, eg)
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if mk.Get(i, j) != mg.Get(i, j) {
					t.Fatalf("it %d: (%d,%d) %v vs %v", it, i, j, mk.Get(i, j), mg.Get(i, j))
				}
			}
		}
	}
	checkMatrixInvariants(t, mk)
}
