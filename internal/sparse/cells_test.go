package sparse

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// sameVectorState compares two images byte for byte (a nil and an empty list
// encode the same, so the lists are compared as bytes, not as values).
func sameVectorState(a, b VectorState) bool {
	return a.Dim == b.Dim && bytes.Equal(a.PackedIndex, b.PackedIndex) && bytes.Equal(a.PackedValue, b.PackedValue)
}

// z's cells are a Vector stored differently: the same random Add stream —
// repeats, exact cancellation to zero and re-insertion, zero adds, the first
// and last index of a row and of the vector — leaves the same entries and
// the same image bytes as the plain sorted-slice oracle, and a restored
// image keeps agreeing as both sides go on growing. Worlds are rows × width
// = VMs × hosts: a toy, the paper's Fig. 4/5 subset, and one past the eager
// budget, where nothing but the page table may be sized by Dim.
func TestZCellsMatchVector(t *testing.T) {
	for _, w := range []struct {
		name        string
		rows, width int
		adds        int
	}{
		{"4x3", 4, 3, 400},
		{"150x100", 150, 100, 6000},
		{"1000x10000", 1000, 10000, 6000},
	} {
		t.Run(w.name, func(t *testing.T) {
			dim := w.rows * w.width
			r := rand.New(rand.NewSource(int64(dim)))
			// A hot set makes indices recur; row and vector boundaries are in it.
			hot := []int{0, w.width - 1, w.width, dim - w.width, dim - 1}
			for len(hot) < 64 {
				row := r.Intn(w.rows)
				hot = append(hot, row*w.width, row*w.width+w.width-1, r.Intn(dim))
			}
			// ±x pairs cancel exactly, so entries vanish and come back.
			vals := []float64{1, -1, 0.5, -0.5, 2.25, -2.25, 0}

			m, oracle := NewMatrix(dim, 1/float64(dim)), NewVector(dim)
			touched := map[int]bool{}
			vanished, returned := 0, 0 // entries cancelled to zero; indices stored again after that
			gone := map[int]bool{}
			step := func(m *Matrix) {
				i := hot[r.Intn(len(hot))]
				if r.Intn(4) == 0 {
					i = r.Intn(dim)
				}
				x := vals[r.Intn(len(vals))]
				was := oracle.Get(i)
				m.AddZ(i, x)
				oracle.Add(i, x)
				touched[i] = true
				switch now := oracle.Get(i); {
				case was != 0 && now == 0:
					vanished++
					gone[i] = true
				case was == 0 && now != 0 && gone[i]:
					returned++
				}
				if got, want := m.Z(i), oracle.Get(i); got != want {
					t.Fatalf("after AddZ(%d, %g): Z = %g, oracle %g", i, x, got, want)
				}
			}
			agree := func(m *Matrix) {
				t.Helper()
				if dim <= 1<<14 {
					for i := 0; i < dim; i++ {
						touched[i] = true
					}
				}
				for i := range touched {
					if got, want := m.Z(i), oracle.Get(i); got != want {
						t.Fatalf("Z(%d) = %g, oracle %g", i, got, want)
					}
				}
				if !sameVectorState(m.cellsState(false), oracle.State()) {
					t.Fatal("z's image bytes differ from the oracle's")
				}
				if !sameVectorState(m.cellsState(true), VectorState{Dim: dim}) || m.NNZ() != 0 {
					t.Fatal("adds to z wrote θ or B")
				}
				checkMatrixInvariants(t, m)
			}

			for k := 0; k < w.adds; k++ {
				step(m)
			}
			agree(m)
			if vanished == 0 || returned == 0 {
				t.Fatalf("stream cancelled %d entries and re-inserted %d: not exercised", vanished, returned)
			}
			if held := m.ResidentBytes() - 4*len(m.pages.slot); dim > eagerIndices && held > dim/8 {
				t.Fatalf("%d resident bytes past the page table for %d entries in a vector of %d: something is sized by Dim",
					held, len(oracle.idx), dim)
			}

			// Round trip: the restored side numbers records in another order,
			// so keep adding on it too.
			zs := m.cellsState(false)
			back := NewMatrix(dim, 1/float64(dim))
			src, at := inImage(zs.PackedIndex, zs.PackedValue, nil, nil)
			if err := back.RestoreCells(zs, VectorState{Dim: dim}, src, at); err != nil {
				t.Fatal(err)
			}
			// (An index cancelled to zero keeps its record; a restored one
			// was never numbered.)
			if back.ResidentBytes() > m.ResidentBytes() {
				t.Fatalf("restored matrix reports %d resident bytes, original %d", back.ResidentBytes(), m.ResidentBytes())
			}
			agree(back)
			for k := 0; k < w.adds/2; k++ {
				step(back)
			}
			agree(back)
		})
	}
}

// Packing and RestoreCells are inverses for z's and θ's cells, whichever
// way the pages were allocated: a cell written back to zero is not packed,
// restoring numbers records — and hands out pages — only for the indices
// its lists name, and vectors of another dimension are refused.
func TestCellsRoundTrip(t *testing.T) {
	const dim = 3*pageSize + 2
	for _, eager := range []bool{true, false} {
		m := newMatrix(dim, 0.5, eager)
		m.setTheta(1, 1.5)
		m.setTheta(dim-1, -2)
		m.setTheta(5, 3)
		m.setTheta(5, 0) // written back to zero: the record stays, the cell is not packed
		m.AddZ(2, 0.25)
		m.AddZ(pageSize, 1)
		m.AddZ(pageSize, -1) // cancelled to zero, on a page of its own
		zs, ts := m.cellsState(false), m.cellsState(true)
		if v, err := vectorFromState(ts); err != nil || v.Dim() != dim || v.NNZ() != 2 || v.Get(1) != 1.5 || v.Get(dim-1) != -2 {
			t.Fatalf("eager=%v: θ's image reads %v (%v)", eager, v, err)
		}
		if v, err := vectorFromState(zs); err != nil || v.NNZ() != 1 || v.Get(2) != 0.25 {
			t.Fatalf("eager=%v: z's image reads %v (%v)", eager, v, err)
		}
		back := newMatrix(dim, 0.5, eager)
		src, at := inImage(zs.PackedIndex, zs.PackedValue, ts.PackedIndex, ts.PackedValue)
		if err := back.RestoreCells(zs, ts, src, at); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < dim; k++ {
			if back.Theta(k) != m.Theta(k) || back.Z(k) != m.Z(k) {
				t.Fatalf("eager=%v: cells of %d are z %g θ %g after the round trip, want %g, %g",
					eager, k, back.Z(k), back.Theta(k), m.Z(k), m.Theta(k))
			}
		}
		checkMatrixInvariants(t, back)
		if back.recs.used != 3 || (!eager && back.pages.used != 2) {
			t.Fatalf("eager=%v: restoring three cells on the first and last of four pages numbered %d records on %d pages",
				eager, back.recs.used, back.pages.used)
		}
		ts.Dim++
		if err := back.RestoreCells(zs, ts, src, at); err == nil || !strings.Contains(err.Error(), "dimension") {
			t.Fatalf("eager=%v: θ of another dimension restored (%v)", eager, err)
		}
	}
}
