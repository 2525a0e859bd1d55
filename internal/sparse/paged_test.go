package sparse

import (
	"math/rand"
	"reflect"
	"testing"
)

// The eager and the lazy side of eagerIndices are one program: the same
// update sequence on a matrix whose pages were carved up front and on one
// whose pages appear on touch leaves byte-identical images, equal NNZ and
// equal column snapshots after every update — across many pages, with
// the drop tolerance on, Set-made holes and overridden diagonals included —
// and each image restores to the same matrix on either side.
func TestEagerAndLazyPagesAreOneMatrix(t *testing.T) {
	const dim = 100*pageSize + 7 // 101 pages, the last one partial
	const gamma = 0.5
	eager, lazy := newMatrix(dim, 1.0/dim, true), newMatrix(dim, 1.0/dim, false)
	if eager.pages.used != len(eager.pages.slot) || len(eager.pages.chunks) != 1 {
		t.Fatalf("eager matrix holds %d of %d pages in %d allocations",
			eager.pages.used, len(eager.pages.slot), len(eager.pages.chunks))
	}

	// Megh-shaped traffic: a few hot actions recur, so rows and columns
	// fill in; the last page stays untouched on the lazy side.
	r := rand.New(rand.NewSource(12))
	hot := make([]int, 24)
	for i := range hot {
		hot[i] = r.Intn(dim - pageSize)
	}
	for _, m := range []*Matrix{eager, lazy} {
		m.SetDropTolerance(1e-9 / dim)
		m.Set(hot[0], hot[0], 0) // diagonal overridden to zero: stored as absent
		m.Set(hot[1], hot[1], 0.75)
		m.Set(hot[2], hot[3], -0.125)
		m.Set(hot[2], hot[3], 0) // a hole where an entry was
	}
	for it := 0; it < 600; it++ {
		a, b := hot[r.Intn(len(hot))], hot[r.Intn(len(hot))]
		scale := float64(1 + r.Intn(3))
		de, ee := eager.ShermanMorrisonBasisScaled(a, b, gamma, scale)
		dl, el := lazy.ShermanMorrisonBasisScaled(a, b, gamma, scale)
		if de != dl || (ee == nil) != (el == nil) {
			t.Fatalf("it %d: eager (%v, %v), lazy (%v, %v)", it, de, ee, dl, el)
		}
		if eager.NNZ() != lazy.NNZ() {
			t.Fatalf("it %d: NNZ %d vs %d", it, eager.NNZ(), lazy.NNZ())
		}
		ei, ev := eager.LastUpdateScaledCol()
		li, lv := lazy.LastUpdateScaledCol()
		if !reflect.DeepEqual(ei, li) || !reflect.DeepEqual(ev, lv) {
			t.Fatalf("it %d: scaled column snapshots differ", it)
		}
		ei, ev = eager.LastUpdateNewCol()
		li, lv = lazy.LastUpdateNewCol()
		if !reflect.DeepEqual(ei, li) || !reflect.DeepEqual(ev, lv) {
			t.Fatalf("it %d: post-update column snapshots differ", it)
		}
	}
	checkMatrixInvariants(t, eager)
	checkMatrixInvariants(t, lazy)
	if lazy.pages.peek(len(lazy.pages.slot)-1) != nil {
		t.Fatal("the lazy matrix handed out a page nothing wrote")
	}
	if lazy.ResidentBytes() >= eager.ResidentBytes() {
		t.Fatalf("lazy matrix holds %d bytes, eager %d", lazy.ResidentBytes(), eager.ResidentBytes())
	}

	img := eager.State()
	if !reflect.DeepEqual(img, lazy.State()) {
		t.Fatal("eager and lazy matrices serialise differently")
	}
	for _, restoreEager := range []bool{true, false} {
		src, at := inImage(img.PackedRows, img.PackedCols, img.PackedVals, img.PackedDiag)
		back, err := img.unpack(src, at, true, restoreEager)
		if err != nil {
			t.Fatal(err)
		}
		checkMatrixInvariants(t, back)
		if !reflect.DeepEqual(back.State(), img) {
			t.Fatalf("image restored with eager=%v serialises differently", restoreEager)
		}
		for i := 0; i < dim; i += 13 {
			if !reflect.DeepEqual(back.Row(i), eager.Row(i)) || !reflect.DeepEqual(back.Col(i), eager.Col(i)) {
				t.Fatalf("image restored with eager=%v differs at row/column %d", restoreEager, i)
			}
		}
	}
}

// Reading never allocates: every accessor on a matrix nothing has written
// answers "empty row, implicit diagonal" from a page table of nil pages.
func TestUnwrittenPagesReadAsTheImplicitIdentity(t *testing.T) {
	const dim = 3 * pageSize
	const i, j = pageSize + 6, 2*pageSize + 2 // in the second and third page
	m := newMatrix(dim, 0.25, false)
	x := NewVector(dim)
	x.Set(i, 2)
	if got := m.Get(i, i); got != 0.25 {
		t.Fatalf("implicit diagonal reads %g", got)
	}
	if got := m.Get(i, i+1); got != 0 {
		t.Fatalf("implicit off-diagonal reads %g", got)
	}
	if got := m.MulVec(x).Get(i); got != 0.5 {
		t.Fatalf("(M·x)[%d] = %g", i, got)
	}
	if got := m.VecMul(x).Get(i); got != 0.5 {
		t.Fatalf("(xᵀ·M)[%d] = %g", i, got)
	}
	if r, c := m.Row(j), m.Col(j); r.NNZ() != 1 || c.NNZ() != 1 || r.Get(j) != 0.25 || c.Get(j) != 0.25 {
		t.Fatalf("row %v, column %v of an unwritten index", r, c)
	}
	if st := m.State(); len(st.PackedRows)+len(st.PackedDiag) != 0 || len(m.Triplets()) != 0 {
		t.Fatal("an unwritten matrix serialises entries")
	}
	m.Set(5, 9, 0) // clearing an entry that was never stored writes nothing
	if m.pages.used != 0 {
		t.Fatalf("reads handed out %d pages", m.pages.used)
	}
	checkMatrixInvariants(t, m)
}
