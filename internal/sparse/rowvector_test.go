package sparse

import (
	"bytes"
	"math/rand"
	"testing"
)

// sameVectorState compares two images byte for byte (a nil and an empty list
// encode the same, so the lists are compared as bytes, not as values).
func sameVectorState(a, b VectorState) bool {
	return a.Dim == b.Dim && bytes.Equal(a.PackedIndex, b.PackedIndex) && bytes.Equal(a.PackedValue, b.PackedValue)
}

// A RowVector is a Vector stored differently: the same random Add stream —
// repeats, exact cancellation to zero and re-insertion, zero adds, the first
// and last index of a row and of the vector — leaves the same entries, the
// same State bytes and the same assembled Vector as the plain sorted-slice
// oracle, and a restored image keeps agreeing as both sides go on growing.
// Worlds are rows × width = VMs × hosts: a toy, the paper's Fig. 4/5 subset,
// and one past the eager budget, where nothing sized by Dim may be held.
func TestRowVectorMatchesVector(t *testing.T) {
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

			rv, oracle := NewRowVector(dim, w.width), NewVector(dim)
			touched := map[int]bool{}
			vanished, returned := 0, 0 // entries cancelled to zero; indices stored again after that
			gone := map[int]bool{}
			step := func(rv *RowVector) {
				i := hot[r.Intn(len(hot))]
				if r.Intn(4) == 0 {
					i = r.Intn(dim)
				}
				x := vals[r.Intn(len(vals))]
				was := oracle.Get(i)
				rv.Add(i, x)
				oracle.Add(i, x)
				touched[i] = true
				switch now := oracle.Get(i); {
				case was != 0 && now == 0:
					vanished++
					gone[i] = true
				case was == 0 && now != 0 && gone[i]:
					returned++
				}
				if got, want := rv.Get(i), oracle.Get(i); got != want {
					t.Fatalf("after Add(%d, %g): Get = %g, oracle %g", i, x, got, want)
				}
			}
			agree := func(rv *RowVector) {
				t.Helper()
				if rv.NNZ() != oracle.NNZ() {
					t.Fatalf("NNZ %d, oracle %d", rv.NNZ(), oracle.NNZ())
				}
				if dim <= 1<<14 {
					for i := 0; i < dim; i++ {
						touched[i] = true
					}
				}
				for i := range touched {
					if got, want := rv.Get(i), oracle.Get(i); got != want {
						t.Fatalf("Get(%d) = %g, oracle %g", i, got, want)
					}
				}
				if !sameVectorState(rv.State(), oracle.State()) {
					t.Fatal("State bytes differ from the oracle's")
				}
				if v := rv.Vector(); !sameVectorState(v.State(), oracle.State()) {
					t.Fatal("assembled Vector differs from the oracle")
				}
				// No two runs, and no run and kept array, share memory.
				arrays := appendShelved(t, appendShelved(t, nil, &rv.sh.idx), &rv.sh.val)
				for row, s := range rv.slot {
					if s != 0 {
						r := &rv.runs[s-1]
						arrays = append(arrays, extentOf(r.idx, row, "run"), extentOf(r.val, row, "run"))
					}
				}
				checkDisjoint(t, arrays)
			}

			for k := 0; k < w.adds; k++ {
				step(rv)
			}
			agree(rv)
			if vanished == 0 || returned == 0 {
				t.Fatalf("stream cancelled %d entries and re-inserted %d: not exercised", vanished, returned)
			}
			if dim > eagerIndices && rv.ResidentBytes() > dim/8 {
				t.Fatalf("%d resident bytes for %d entries in a vector of %d: something is sized by Dim",
					rv.ResidentBytes(), rv.NNZ(), dim)
			}

			// Round trip: the restored rows are carved from one backing array
			// and move out as they grow, so keep adding on the restored side
			// too.
			flat, err := vectorFromState(rv.State())
			if err != nil {
				t.Fatal(err)
			}
			back := flat.Rows(w.width)
			// (A row emptied by cancellation keeps its header; a restored one
			// was never created.)
			if back.ResidentBytes() > rv.ResidentBytes() {
				t.Fatalf("restored vector reports %d resident bytes, original %d", back.ResidentBytes(), rv.ResidentBytes())
			}
			agree(back)
			for k := 0; k < w.adds/2; k++ {
				step(back)
			}
			agree(back)
		})
	}
}
