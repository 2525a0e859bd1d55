package sparse

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// appendGaps appends a whole ascending index list.
func appendGaps(dst []byte, idx []int) []byte {
	p := Packed{Buf: dst}
	p.gaps(-1, idx)
	return p.Buf
}

func TestVectorStateRoundTrip(t *testing.T) {
	v := NewVector(10)
	v.Set(3, 1.5)
	v.Set(7, -2)
	st := v.State()
	back, err := vectorFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != 10 || back.Get(3) != 1.5 || back.Get(7) != -2 || back.NNZ() != 2 {
		t.Fatalf("round-trip lost data: %v", back)
	}
}

func TestVectorFromStateRejectsMalformed(t *testing.T) {
	cases := []VectorState{
		{Dim: -1},
		{Dim: 3, PackedIndex: appendGaps(nil, []int{0, 1}), PackedValue: appendWords(nil, []float64{1})},
		{Dim: 3, PackedIndex: appendGaps(nil, []int{5}), PackedValue: appendWords(nil, []float64{1})},
		{Dim: 3, PackedIndex: []byte{1, 0}, PackedValue: appendWords(nil, []float64{1, 2})},
	}
	for i, st := range cases {
		if _, err := vectorFromState(st); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMatrixStateRoundTripPreservesImplicitDiag(t *testing.T) {
	m := NewMatrix(6, 0.25)
	m.Set(1, 2, 3)
	m.Set(4, 4, 0) // override implicit diagonal with zero
	m.Set(2, 2, 9) // override with a value
	st := m.State()
	back, err := matrixFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if back.Get(1, 2) != 3 {
		t.Fatal("off-diagonal lost")
	}
	if back.Get(2, 2) != 9 {
		t.Fatal("materialised diagonal lost")
	}
	if back.Get(4, 4) != 0 {
		t.Fatal("zero-overridden diagonal resurrected as implicit 0.25")
	}
	if back.Get(0, 0) != 0.25 {
		t.Fatal("untouched implicit diagonal lost")
	}
	if back.NNZ() != m.NNZ() {
		t.Fatalf("NNZ %d != %d", back.NNZ(), m.NNZ())
	}
}

func TestMatrixFromStateRejectsMalformed(t *testing.T) {
	cases := []MatrixState{
		{Dim: -1},
		{Dim: 2, DropTol: -1},
		{Dim: 2, PackedRows: []byte{2, 1}, PackedCols: []byte{0}, PackedVals: appendWords(nil, []float64{1})},
		{Dim: 2, PackedDiag: appendGaps(nil, []int{5})},
	}
	for i, st := range cases {
		if _, err := matrixFromState(st); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Property: matrix round-trips exactly after random Sherman–Morrison
// update streams (the persistence path used by the Megh learner).
func TestQuickMatrixStateRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dim = 12
		m := NewMatrix(dim, 1.0/dim)
		m.SetDropTolerance(1e-12)
		for step := 0; step < 20; step++ {
			a, nb := r.Intn(dim), r.Intn(dim)
			u := Basis(dim, a)
			v := Basis(dim, a)
			v.Add(nb, -0.5)
			if _, err := m.ShermanMorrison(u, v); err != nil {
				continue
			}
		}
		back, err := matrixFromState(m.State())
		if err != nil {
			return false
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if m.Get(i, j) != back.Get(i, j) {
					return false
				}
			}
		}
		return back.NNZ() == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// State writes every list of the packed form.
func TestStateWritesPackedFormOnly(t *testing.T) {
	m := NewMatrix(4, 0.25)
	m.Set(1, 2, 3)
	m.Set(3, 3, 0)
	st := m.State()
	if len(st.PackedRows) == 0 || len(st.PackedCols) == 0 || len(st.PackedVals) != 8 || len(st.PackedDiag) == 0 {
		t.Fatalf("matrix state is not packed: %+v", st)
	}
	v := NewVector(5)
	v.Set(4, 2)
	vs := v.State()
	if len(vs.PackedIndex) != 1 || len(vs.PackedValue) != 8 {
		t.Fatalf("vector state is not packed: %+v", vs)
	}
}

// Each list streamed alone through a window smaller than a row, a page or
// a value run — or than one entry — is, byte for byte, the list State
// packs, and z's and θ's lists are those of the Vector holding their cells.
func TestPackStreamsWhatStateHolds(t *testing.T) {
	const dim = 5*pageSize + 3
	m := NewMatrix(dim, 0.25)
	v := NewVector(dim)
	for j := 0; j < dim; j += 2 {
		m.Set(7, j, float64(j)+0.5) // one row far wider than the window
		v.Set(j, -float64(j)-1)
		m.AddZ(j, -float64(j)-1)
		m.setTheta(j, -float64(j)-1)
	}
	m.Set(dim-1, 3, 2)
	m.Set(40, 40, 0) // an overridden diagonal that stores nothing
	m.Set(90, 90, 1.5)
	for _, window := range []int{4, 24} {
		testPackStreams(t, window, m, v)
	}
}

func testPackStreams(t *testing.T, window int, m *Matrix, v *Vector) {
	stream := func(pack func(*Packed)) []byte {
		var out bytes.Buffer
		p := Packed{Buf: make([]byte, 0, window), W: &out}
		pack(&p)
		p.Flush()
		if p.Err != nil || p.Len != out.Len() {
			t.Fatalf("window %d: streamed %d bytes, counted %d (err %v)", window, out.Len(), p.Len, p.Err)
		}
		return out.Bytes()
	}
	st, vs := m.State(), v.State()
	for i, want := range [][]byte{st.PackedRows, st.PackedCols, st.PackedVals, st.PackedDiag,
		vs.PackedIndex, vs.PackedValue, vs.PackedIndex, vs.PackedValue} {
		var l [8]*Packed
		if got := stream(func(p *Packed) { l[i] = p; m.Pack(&l) }); !bytes.Equal(got, want) {
			t.Fatalf("window %d: list %d streamed alone: %d bytes, State holds %d", window, i, len(got), len(want))
		}
	}
}

// A restored matrix is the matrix: same column index, and the same bits
// after the same further updates — rows and member lists carved out of one
// array at their exact lengths move out when they grow, and their arrays,
// shelved for other lists to take, are never written through twice.
func TestQuickRestoredMatrixContinuesIdentically(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dim = 16
		m := NewMatrix(dim, 1.0/dim)
		m.SetDropTolerance(1e-12)
		step := func(x *Matrix, a, b int) { _, _ = x.ShermanMorrisonBasis(a, b, 0.5) }
		for i := 0; i < 25; i++ {
			step(m, r.Intn(dim), r.Intn(dim))
		}
		back, err := matrixFromState(m.State())
		if err != nil {
			return false
		}
		for j := 0; j < dim; j++ {
			if !reflect.DeepEqual(m.Col(j), back.Col(j)) {
				return false
			}
		}
		for i := 0; i < 100; i++ {
			a, b := r.Intn(dim), r.Intn(dim)
			step(m, a, b)
			step(back, a, b)
		}
		checkMatrixInvariants(t, back)
		return reflect.DeepEqual(m.State(), back.State()) && reflect.DeepEqual(m.Dense(), back.Dense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Every malformed packed form is refused — by Validate and by the builder
// alike, with the same error — and the error names the list at fault.
func TestPackedStateRejectsMalformed(t *testing.T) {
	gaps := func(idx ...int) []byte { return appendGaps(nil, idx) }
	words := func(val ...float64) []byte { return appendWords(nil, val) }
	// (row gap, count) pairs.
	rows := func(pairs ...int) []byte {
		var b []byte
		for _, p := range pairs {
			b = binary.AppendUvarint(b, uint64(p))
		}
		return b
	}
	good := MatrixState{Dim: 4, Diag: 0.25,
		PackedRows: rows(1, 2, 2, 1), PackedCols: append(gaps(0, 3), gaps(2)...),
		PackedVals: words(1, 2, 3), PackedDiag: gaps(1, 3)}
	if err := good.validate(); err != nil {
		t.Fatalf("well-formed state refused: %v", err)
	}
	with := func(edit func(*MatrixState)) MatrixState {
		st := good
		edit(&st)
		return st
	}
	for name, tc := range map[string]struct {
		st    MatrixState
		field string
	}{
		"duplicate column":      {with(func(st *MatrixState) { st.PackedCols = []byte{0, 0, 2} }), "PackedCols repeats"},
		"column out of range":   {with(func(st *MatrixState) { st.PackedCols = append(gaps(0, 3), 4) }), "PackedCols"},
		"column overlong":       {with(func(st *MatrixState) { st.PackedCols = bytes.Repeat([]byte{0xff}, 11) }), "PackedCols is truncated or overlong"},
		"columns truncated":     {with(func(st *MatrixState) { st.PackedCols = gaps(0, 3) }), "PackedCols is truncated"},
		"columns left over":     {with(func(st *MatrixState) { st.PackedCols = append(st.PackedCols, 1) }), "PackedCols holds more"},
		"row out of range":      {with(func(st *MatrixState) { st.PackedRows = rows(1, 2, 3, 1) }), "PackedRows"},
		"duplicate row":         {with(func(st *MatrixState) { st.PackedRows = rows(1, 2, 0, 1) }), "PackedRows repeats"},
		"row count truncated":   {with(func(st *MatrixState) { st.PackedRows = rows(1, 2, 2) }), "PackedRows is truncated"},
		"empty row listed":      {with(func(st *MatrixState) { st.PackedRows = rows(1, 0, 2, 3) }), "PackedRows gives row 1 0 entries"},
		"rows claim too many":   {with(func(st *MatrixState) { st.PackedRows = rows(1, 2, 2, 2) }), "PackedRows gives row 3 2 entries"},
		"rows claim too few":    {with(func(st *MatrixState) { st.PackedRows = rows(1, 2) }), "PackedRows accounts for 2 entries"},
		"values not whole":      {with(func(st *MatrixState) { st.PackedVals = st.PackedVals[:23] }), "PackedVals is 23 bytes"},
		"stored zero":           {with(func(st *MatrixState) { st.PackedVals = words(1, 0, 3) }), "PackedVals stores a zero at (1,3)"},
		"diag out of range":     {with(func(st *MatrixState) { st.PackedDiag = gaps(1, 4) }), "PackedDiag"},
		"diag repeats":          {with(func(st *MatrixState) { st.PackedDiag = []byte{1, 0} }), "PackedDiag repeats"},
		"negative dim":          {with(func(st *MatrixState) { st.Dim = -1 }), "negative dimension"},
		"dim smaller than data": {with(func(st *MatrixState) { st.Dim = 3 }), "out of range [0,3)"},
	} {
		t.Run("matrix/"+name, func(t *testing.T) {
			verr := tc.st.validate()
			_, berr := matrixFromState(tc.st)
			if verr == nil || berr == nil || verr.Error() != berr.Error() {
				t.Fatalf("Validate says %v, MatrixFromState says %v", verr, berr)
			}
			if !strings.Contains(verr.Error(), tc.field) {
				t.Fatalf("error %q does not name %q", verr, tc.field)
			}
		})
	}

	goodVec := VectorState{Dim: 5, PackedIndex: gaps(1, 4), PackedValue: words(2, -1)}
	if err := goodVec.validate(); err != nil {
		t.Fatalf("well-formed vector state refused: %v", err)
	}
	for name, tc := range map[string]struct {
		st    VectorState
		field string
	}{
		"duplicate index":  {VectorState{Dim: 5, PackedIndex: []byte{1, 0}, PackedValue: words(2, -1)}, "PackedIndex repeats"},
		"out of range":     {VectorState{Dim: 4, PackedIndex: gaps(1, 4), PackedValue: words(2, -1)}, "PackedIndex"},
		"index truncated":  {VectorState{Dim: 5, PackedIndex: gaps(1), PackedValue: words(2, -1)}, "PackedIndex is truncated"},
		"indices left":     {VectorState{Dim: 5, PackedIndex: gaps(1, 4), PackedValue: words(2)}, "PackedIndex holds more"},
		"values not whole": {VectorState{Dim: 5, PackedIndex: gaps(1), PackedValue: words(2)[:7]}, "PackedValue is 7 bytes"},
		"stored zero":      {VectorState{Dim: 5, PackedIndex: gaps(1, 4), PackedValue: words(2, 0)}, "PackedValue stores a zero at index 4"},
	} {
		t.Run("vector/"+name, func(t *testing.T) {
			verr := tc.st.validate()
			_, berr := vectorFromState(tc.st)
			if verr == nil || berr == nil || verr.Error() != berr.Error() {
				t.Fatalf("Validate says %v, unpack says %v", verr, berr)
			}
			src, at := inImage(nil, nil, tc.st.PackedIndex, tc.st.PackedValue)
			if rerr := NewMatrix(tc.st.Dim, 1).RestoreCells(VectorState{Dim: tc.st.Dim}, tc.st, src, at); rerr == nil || rerr.Error() != "θ: "+verr.Error() {
				t.Fatalf("Validate says %v, RestoreCells says %v", verr, rerr)
			}
			if !strings.Contains(verr.Error(), tc.field) {
				t.Fatalf("error %q does not name %q", verr, tc.field)
			}
		})
	}
}

// A list that cannot be read whole — its section runs past the end of the
// source — is refused as the failed read, not as a malformed list.
func TestValidateReportsFailedReads(t *testing.T) {
	src, at := inImage(appendGaps(nil, []int{1, 4}), appendWords(nil, []float64{2, -1}))
	at[1].Len += 8
	if err := (VectorState{Dim: 5}).Validate(src, at); err != io.ErrUnexpectedEOF {
		t.Fatalf("a value list past the source's end: err %v", err)
	}
}

// Validate's cost follows the image, not the dimension it declares: an
// empty state of an absurd Dim is checked without a single allocation.
func TestValidateAllocatesNothingForHugeDim(t *testing.T) {
	ms := MatrixState{Dim: 1 << 40, Diag: 1}
	vs := VectorState{Dim: 1 << 40}
	empty := make([]Section, 4)
	if n := testing.AllocsPerRun(10, func() {
		if ms.Validate(nil, empty) != nil || vs.Validate(nil, empty) != nil {
			t.Fatal("empty huge state refused")
		}
	}); n != 0 {
		t.Fatalf("Validate allocated %.0f times for an empty state", n)
	}
}
