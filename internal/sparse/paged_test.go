package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The eager and the lazy side of eagerIndices are one program: the same
// update sequence on a matrix whose pages were carved up front and on one
// whose pages appear on touch leaves byte-identical images, equal NNZ and
// equal column snapshots after every update — across many pages, with
// the drop tolerance on, Set-made holes and overridden diagonals included —
// and each image restores to the same matrix on either side. The z and θ
// cells are written as the learner writes them, so they are part of it:
// bit-equal cells, equal images, and the same cells restored.
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
	// One transition of the learner's: B by Sherman–Morrison, then
	// θ' = θ − (B·u)(vᵀθ)/den + c·col_a(B') and z' = z + c·φ_a.
	learn := func(m *Matrix, a, b int, scale, c float64) (float64, error) {
		vTheta := m.Theta(a) - gamma*m.Theta(b)
		den, err := m.ShermanMorrisonBasisScaled(a, b, gamma, scale)
		if err == nil {
			m.AddThetaScaledCol(-vTheta)
			m.AddZ(a, c)
			m.AddThetaNewCol(c)
		}
		return den, err
	}
	costs := []float64{0, 1, -1, 0.375, 2.5}
	for it := 0; it < 600; it++ {
		a, b := hot[r.Intn(len(hot))], hot[r.Intn(len(hot))]
		scale := float64(1 + r.Intn(3))
		c := costs[r.Intn(len(costs))]
		de, ee := learn(eager, a, b, scale, c)
		dl, el := learn(lazy, a, b, scale, c)
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
	sameCells := func(what string, m *Matrix) {
		t.Helper()
		for i := 0; i < dim; i++ {
			if math.Float64bits(m.Z(i)) != math.Float64bits(eager.Z(i)) ||
				math.Float64bits(m.Theta(i)) != math.Float64bits(eager.Theta(i)) {
				t.Fatalf("%s: cells of %d are z %v θ %v, eager z %v θ %v", what, i, m.Z(i), m.Theta(i), eager.Z(i), eager.Theta(i))
			}
		}
	}
	sameCells("lazy", lazy)
	zs, ts := eager.cellsState(false), eager.cellsState(true)
	if len(zs.PackedValue) == 0 || len(ts.PackedValue) == 0 {
		t.Fatal("the updates left z or θ empty")
	}
	if !reflect.DeepEqual(zs, lazy.cellsState(false)) || !reflect.DeepEqual(ts, lazy.cellsState(true)) {
		t.Fatal("eager and lazy cells serialise differently")
	}
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
		src, at = inImage(zs.PackedIndex, zs.PackedValue, ts.PackedIndex, ts.PackedValue)
		if err := back.RestoreCells(zs, ts, src, at); err != nil {
			t.Fatal(err)
		}
		checkMatrixInvariants(t, back)
		if !reflect.DeepEqual(back.State(), img) {
			t.Fatalf("image restored with eager=%v serialises differently", restoreEager)
		}
		sameCells("restored", back)
		for i := 0; i < dim; i += 13 {
			if !reflect.DeepEqual(back.Row(i), eager.Row(i)) || !reflect.DeepEqual(back.Col(i), eager.Col(i)) {
				t.Fatalf("image restored with eager=%v differs at row/column %d", restoreEager, i)
			}
		}
	}
}

// Reading never allocates: every accessor on a matrix nothing has written
// answers "empty row, implicit diagonal, zero cells" from a page table of
// nil pages.
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
	if m.Z(i) != 0 || m.Theta(j) != 0 || m.GatherMin(make([]float64, 2), i, []int{0, j - i}) != 0 {
		t.Fatal("an unwritten cell reads non-zero")
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
