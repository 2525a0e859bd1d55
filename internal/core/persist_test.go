package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"megh/internal/sim"
	"megh/internal/sparse"
	"megh/internal/workload"
)

// trainLearner runs a learner through a short bursty simulation so its
// state is non-trivial.
func trainLearner(t *testing.T) (*Megh, *sim.Simulator) {
	t.Helper()
	const nVMs, nHosts, steps = 12, 8, 60
	traces, err := workload.GeneratePlanetLab(func() workload.PlanetLabConfig {
		c := workload.DefaultPlanetLabConfig(3)
		c.Steps = steps
		return c
	}(), nVMs)
	if err != nil {
		t.Fatal(err)
	}
	hosts, _ := sim.PlanetLabHosts(nHosts)
	vms, _ := sim.PlanetLabVMs(nVMs, 2)
	s, err := sim.New(sim.Config{Hosts: hosts, VMs: vms, Traces: traces, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(nVMs, nHosts, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(m); err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, _ := trainLearner(t)
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.QTableNNZ() != m.QTableNNZ() {
		t.Fatalf("Q-table NNZ %d != %d", back.QTableNNZ(), m.QTableNNZ())
	}
	if math.Abs(back.Temperature()-m.Temperature()) > 1e-15 {
		t.Fatalf("temperature %g != %g", back.Temperature(), m.Temperature())
	}
	if len(back.NNZHistory()) != len(m.NNZHistory()) {
		t.Fatal("NNZ history length lost")
	}
	// θ must be identical entry-wise.
	for i := 0; i < m.d; i++ {
		if back.theta.At(i) != m.theta.At(i) {
			t.Fatalf("θ[%d] differs after round-trip", i)
		}
	}
	// B must be identical on a sample of entries.
	for _, tr := range m.b.Triplets() {
		if back.b.Get(tr.Row, tr.Col) != tr.Val {
			t.Fatalf("B[%d,%d] differs after round-trip", tr.Row, tr.Col)
		}
	}
}

func TestRestoredLearnerKeepsServing(t *testing.T) {
	m, s := trainLearner(t)
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The restored learner must drive a fresh simulation without issue
	// and keep its learned state growing.
	before := back.QTableNNZ()
	res, err := s.Run(back)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost() <= 0 {
		t.Fatal("restored learner produced a degenerate run")
	}
	if back.QTableNNZ() < before {
		t.Fatal("restored learner's Q-table shrank")
	}
}

// TestSaveLoadPreservesRNGStream pins the property the differential suite
// in internal/invariant builds on: SaveState captures the exploration RNG
// exactly and consumes nothing, so the original learner and a restored one
// continue the identical random stream.
func TestSaveLoadPreservesRNGStream(t *testing.T) {
	m, _ := trainLearner(t)
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if a, b := m.rng.Uint64(), back.rng.Uint64(); a != b {
			t.Fatalf("RNG streams diverge at draw %d: %#x vs %#x", i, a, b)
		}
	}
}

// TestVersion1FormsAreRefused: this build reads only the version it
// writes. An otherwise canonical image carrying any form only a version-1
// image had — the version number, an element-by-element list, a reseed
// value in place of the RNG state, a PendingTotal below the pending count —
// is refused with one error that names it. A Version other than 2 is
// reported before the lists it would carry. (A replica PUT of each is
// refused in internal/server's TestReplicaPutMalformedImagesLeaveGoodReplicaIntact.)
func TestVersion1FormsAreRefused(t *testing.T) {
	m, _ := trainLearner(t)
	good := mirrorOf(m)
	if err := VerifyImage(mirrorImage(t, good)); err != nil {
		t.Fatalf("the unedited image is refused: %v", err)
	}
	// The version-1 form of what the packed form already holds: even a
	// second copy that agrees with the first is refused.
	diag, thetaIdx := gapIndices(good.B.PackedDiag), gapIndices(good.Theta.PackedIndex)
	if len(good.B.PackedRows) == 0 || len(diag) == 0 || len(thetaIdx) == 0 || len(good.Theta.PackedValue) != 8*len(thetaIdx) {
		t.Fatal("the trained image has no packed B entries, B diagonal or θ entries to copy")
	}
	thetaVal := make([]float64, len(thetaIdx))
	for k := range thetaVal {
		thetaVal[k] = math.Float64frombits(binary.LittleEndian.Uint64(good.Theta.PackedValue[8*k:]))
	}
	for name, tc := range map[string]struct {
		edit func(*imageV2)
		want string
	}{
		"Triplets agreeing with PackedRows":       {func(st *imageV2) { st.B.Triplets = m.b.Triplets() }, "MatrixState.Triplets is set"},
		"OverriddenDiag agreeing with PackedDiag": {func(st *imageV2) { st.B.OverriddenDiag = diag }, "MatrixState.OverriddenDiag is set"},
		"Index and Value agreeing with packed θ":  {func(st *imageV2) { st.Theta.Index, st.Theta.Value = thetaIdx, thetaVal }, "VectorState.Index is set"},
		// The version-1 form alone, with the packed form it replaced cleared.
		"Triplets alone": {func(st *imageV2) {
			st.B.Triplets = m.b.Triplets()
			st.B.PackedRows, st.B.PackedCols, st.B.PackedVals = nil, nil, nil
		}, "MatrixState.Triplets is set"},
		"OverriddenDiag alone": {func(st *imageV2) { st.B.OverriddenDiag, st.B.PackedDiag = diag, nil }, "MatrixState.OverriddenDiag is set"},
		"Value alone": {func(st *imageV2) {
			st.Theta.Value, st.Theta.PackedIndex, st.Theta.PackedValue = thetaVal, nil, nil
		}, "VectorState.Value is set"},
		"Version 1": {func(st *imageV2) { st.Version = 1 }, "learner state version 1, this build reads only version 2"},
		"version-1 image": {func(st *imageV2) {
			st.Version, st.B.Triplets = 1, []sparse.Triplet{{Row: 0, Col: 1, Val: 2}}
			st.B.PackedRows, st.B.PackedCols, st.B.PackedVals = nil, nil, nil
		}, "learner state version 1, this build reads only version 2"},
		"Triplets":         {func(st *imageV2) { st.B.Triplets = []sparse.Triplet{{Row: 0, Col: 1, Val: 2}} }, "MatrixState.Triplets is set"},
		"OverriddenDiag":   {func(st *imageV2) { st.B.OverriddenDiag = []int{0, 3} }, "MatrixState.OverriddenDiag is set"},
		"Index":            {func(st *imageV2) { st.Z.Index = []int{4} }, "VectorState.Index is set"},
		"Index of θ":       {func(st *imageV2) { st.Theta.Index = []int{4} }, "VectorState.Index is set"},
		"Value":            {func(st *imageV2) { st.Theta.Value = []float64{0.5} }, "VectorState.Value is set"},
		"RngSeed":          {func(st *imageV2) { st.RngSeed = 12345 }, "RngSeed is set"},
		"RngState 0 words": {func(st *imageV2) { st.RngState = nil }, "persisted RNG state has 0 words, want 2"},
		"RngState 3 words": {func(st *imageV2) { st.RngState = append(st.RngState, 9) }, "persisted RNG state has 3 words, want 2"},
		"PendingTotal": {func(st *imageV2) { st.Pending, st.PendingTotal = []int{1, 2}, 1 },
			"persisted PendingTotal 1 is below the 2 pending actions"},
	} {
		t.Run(name, func(t *testing.T) {
			st := mirrorOf(m)
			tc.edit(&st)
			assertRefused(t, mirrorImage(t, st), tc.want)
		})
	}
}

// gapIndices decodes a packed ascending index list: the first index, then
// each later one as its distance from the one before.
func gapIndices(gaps []byte) []int {
	var idx []int
	for prev := 0; len(gaps) > 0; {
		g, w := binary.Uvarint(gaps)
		prev += int(g)
		idx, gaps = append(idx, prev), gaps[w:]
	}
	return idx
}

// assertRefused: VerifyImage, LoadState and LoadStateFile all refuse img,
// in the same words, and those words say want.
func assertRefused(t *testing.T, img []byte, want string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "refused.ckpt")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	verr := VerifyImage(img)
	_, lerr := LoadState(bytes.NewReader(img))
	_, ferr := LoadStateFile(path)
	if verr == nil || lerr == nil || ferr == nil || verr.Error() != lerr.Error() || ferr.Error() != lerr.Error() {
		t.Fatalf("VerifyImage says %v, LoadState %v, LoadStateFile %v", verr, lerr, ferr)
	}
	if !strings.Contains(verr.Error(), want) {
		t.Fatalf("error %q does not say %q", verr, want)
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	if _, err := LoadState(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadStateRejectsWrongVersion(t *testing.T) {
	m, _ := trainLearner(t)
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	st := readMirror(t, buf.Bytes())
	st.Version = 99
	if _, err := LoadState(bytes.NewReader(mirrorImage(t, st))); err == nil {
		t.Fatal("expected version error")
	}
}

func TestLoadStateRejectsInvalidFields(t *testing.T) {
	m, _ := trainLearner(t)
	mutations := []func(*imageV2){
		func(st *imageV2) { st.Temp = -1 },
		func(st *imageV2) { st.Temp = math.NaN() },
		func(st *imageV2) { st.Temp = math.Inf(1) },
		func(st *imageV2) { st.Config.NumVMs = 0 },
		func(st *imageV2) { st.Pending = []int{1 << 30} },
		func(st *imageV2) { st.Z.Dim = 1 },
		func(st *imageV2) { st.RngState = []uint64{1, 2, 3} },
	}
	for i, mutate := range mutations {
		var buf bytes.Buffer
		if err := m.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		st := readMirror(t, buf.Bytes())
		mutate(&st)
		if _, err := LoadState(bytes.NewReader(mirrorImage(t, st))); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// VerifyImage is the first half of LoadState, so the two cannot disagree:
// every image one refuses the other refuses with the same words, and a
// refusal says which part of the image is at fault.
func TestVerifyStateAgreesWithLoadState(t *testing.T) {
	m, _ := trainLearner(t)
	var good bytes.Buffer
	if err := m.SaveState(&good); err != nil {
		t.Fatal(err)
	}
	if err := VerifyImage(good.Bytes()); err != nil {
		t.Fatalf("VerifyImage refuses a fresh image: %v", err)
	}
	d := m.d
	for name, tc := range map[string]struct {
		mutate func(*imageV2)
		want   string
	}{
		"version too new":    {func(st *imageV2) { st.Version = 3 }, "version 3"},
		"version too old":    {func(st *imageV2) { st.Version = 0 }, "version 0"},
		"bad config":         {func(st *imageV2) { st.Config.Gamma = 1 }, "restoring learner: core: Gamma"},
		"overflowing config": {func(st *imageV2) { st.Config.NumVMs, st.Config.NumHosts = 1<<40, 1<<40 }, "on one axis"},
		"oversize config":    {func(st *imageV2) { st.Config.NumVMs, st.Config.NumHosts = 100000, 100000 }, "exceed the ceiling"},
		"bad temperature":    {func(st *imageV2) { st.Temp = 0 }, "temperature"},
		"bad rng":            {func(st *imageV2) { st.RngState = st.RngState[:1] }, "RNG state has 1 words"},
		"B repeated column":  {func(st *imageV2) { st.B.PackedCols[1] = 0 }, "restoring B: sparse: matrix PackedCols repeats"},
		"B stored zero":      {func(st *imageV2) { copy(st.B.PackedVals, make([]byte, 8)) }, "restoring B: sparse: matrix PackedVals stores a zero"},
		"B both forms":       {func(st *imageV2) { st.B.Triplets = []sparse.Triplet{{Row: 0, Col: 0, Val: 1}} }, "MatrixState.Triplets is set"},
		"z truncated":        {func(st *imageV2) { st.Z.PackedIndex = st.Z.PackedIndex[:0] }, "restoring z: sparse: vector PackedIndex is truncated"},
		"θ values not whole": {func(st *imageV2) { st.Theta.PackedValue = st.Theta.PackedValue[:9] }, "restoring θ: sparse: vector PackedValue is 9 bytes"},
		"dimension mismatch": {func(st *imageV2) { st.Z.Dim = d + 1 }, "do not match config"},
		"pending range":      {func(st *imageV2) { st.Pending = []int{d} }, "pending action"},
		// Any queue of the removed deferred-update mode, well-formed or not,
		// is refused by the one check that names the field.
		"deferred range": {func(st *imageV2) { st.Deferred = []deferredV2{{A: 1, B: d, N: 1}} }, "Deferred is set"},
		"deferred count": {func(st *imageV2) { st.Deferred = []deferredV2{{A: 1, B: 2}} }, "Deferred is set"},
		"deferred cost":  {func(st *imageV2) { st.Deferred = []deferredV2{{A: 1, B: 2, N: 1, C: math.Inf(1)}} }, "Deferred is set"},
	} {
		t.Run(name, func(t *testing.T) {
			st := readMirror(t, good.Bytes())
			tc.mutate(&st)
			bad := mirrorImage(t, st)
			verr := VerifyImage(bad)
			_, lerr := LoadState(bytes.NewReader(bad))
			if verr == nil || lerr == nil || verr.Error() != lerr.Error() {
				t.Fatalf("VerifyImage says %v, LoadState says %v", verr, lerr)
			}
			if !strings.Contains(verr.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", verr, tc.want)
			}
		})
	}
	for name, raw := range map[string][]byte{
		"garbage":        []byte("not gob"),
		"truncated":      good.Bytes()[:good.Len()/2],
		"empty":          nil,
		"trailing bytes": append(bytes.Clone(good.Bytes()), 1, 2),
	} {
		verr := VerifyImage(raw)
		_, lerr := LoadState(bytes.NewReader(raw))
		if verr == nil || lerr == nil || verr.Error() != lerr.Error() {
			t.Fatalf("%s: VerifyImage says %v, LoadState says %v", name, verr, lerr)
		}
	}
}

// The deferred-update mode was removed, but the version-2 image still names
// its fields. An image that sets any of them — written by a build that had
// the mode — is refused wherever it is read, with an error naming the
// field, never restored without its queue. (A replica PUT of each is
// refused in internal/server's TestReplicaPutMalformedImagesLeaveGoodReplicaIntact.)
func TestRetiredDeferredFieldsAreRefused(t *testing.T) {
	m := checkpointLearner(t)
	for field, mutate := range map[string]func(*imageV2){
		"Deferred":       func(st *imageV2) { st.Deferred = []deferredV2{{A: 1, B: 2, N: 1, C: 0.5}} },
		"DeferAge":       func(st *imageV2) { st.DeferAge = 3 },
		"DeferThreshold": func(st *imageV2) { st.Config.DeferThreshold = 1e-3 },
		"DeferMaxAge":    func(st *imageV2) { st.Config.DeferMaxAge = 8 },
	} {
		t.Run(field, func(t *testing.T) {
			st := mirrorOf(m)
			mutate(&st)
			assertRefused(t, mirrorImage(t, st), field+" is set, a retired field this build refuses")
		})
	}
}

// TestLoadStateRejectsCorruptDeferredQueue: out-of-range indices, zero
// multiplicities and non-finite costs in a persisted queue must be refused,
// not replayed into the kernel — now by the check that refuses any queue.
func TestLoadStateRejectsCorruptDeferredQueue(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]deferredV2{
		"action-out-of-range": {A: 99, B: 0, N: 1, C: 0},
		"zero-multiplicity":   {A: 0, B: 1, N: 0, C: 0},
		"nan-cost":            {A: 0, B: 1, N: 1, C: math.NaN()},
	} {
		t.Run(name, func(t *testing.T) {
			st := mirrorOf(m)
			st.Deferred = []deferredV2{corrupt}
			_, err := LoadState(bytes.NewReader(mirrorImage(t, st)))
			if err == nil {
				t.Fatalf("corrupt deferred entry %+v loaded without error", corrupt)
			}
			if !strings.Contains(err.Error(), "Deferred") {
				t.Fatalf("error %q does not name Deferred", err)
			}
		})
	}
}

// Cost follows contents, not the declared world. Verifying the checkpoint of
// a fresh 10 000 × 1 000 learner (under 2 KB) must not allocate anything
// sized by d = 10⁷; building that learner, and restoring it a simulated day
// old (398 transitions, ≈20 KB on disk), must each stay under one bound of
// tens of MiB — its dense tables were 810 MB — and the bound must still hold
// when the declared world is ten times larger.
func TestVerifyStateCostFollowsTheImage(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var small bytes.Buffer
	if err := m.SaveState(&small); err != nil {
		t.Fatal(err)
	}
	st := readMirror(t, small.Bytes())
	const d = 10000 * 1000
	st.Config.NumVMs, st.Config.NumHosts = 10000, 1000
	st.B.Dim, st.Z.Dim, st.Theta.Dim = d, d, d
	img := mirrorImage(t, st)

	got := allocatedBy(func() {
		if err := VerifyImage(img); err != nil {
			t.Fatalf("image of a fresh 10 000 × 1 000 learner refused: %v", err)
		}
	})
	// One d-sized table of anything would be 10 MB or more.
	if got > 1<<20 {
		t.Fatalf("verifying a %d-byte image allocated %d bytes", len(img), got)
	}

	// The build half. A day at 10 000 hosts leaves ≈400 touched rows and as
	// many touched columns of B (a 2.3 KB page each) and a 256-byte θ page
	// or two per touched action: a few MB, on top of two page tables of d/4
	// bytes each.
	const bound = 64 << 20
	for _, w := range []struct{ nVMs, nHosts int }{{1000, 10000}, {10000, 10000}} {
		cfg := DefaultConfig(w.nVMs, w.nHosts, 3)
		var big *Megh
		if got := allocatedBy(func() { big, err = New(cfg) }); err != nil || got > bound {
			t.Fatalf("New at %d × %d: %d bytes allocated, err %v", w.nHosts, w.nVMs, got, err)
		}
		ageOneDay(big)
		var day bytes.Buffer
		if err := big.SaveState(&day); err != nil {
			t.Fatal(err)
		}
		if day.Len() > 64<<10 {
			t.Fatalf("day-old image of %d × %d is %d bytes", w.nHosts, w.nVMs, day.Len())
		}
		var back *Megh
		got := allocatedBy(func() { back, err = LoadState(bytes.NewReader(day.Bytes())) })
		if err != nil {
			t.Fatal(err)
		}
		if got > bound || back.QTableResidentBytes() > bound {
			t.Fatalf("restoring a %d-byte image of %d × %d allocated %d bytes (%d resident), bound %d",
				day.Len(), w.nHosts, w.nVMs, got, back.QTableResidentBytes(), bound)
		}
		if back.QTableNNZ() != big.QTableNNZ() {
			t.Fatalf("restored learner holds %d entries, the saved one %d", back.QTableNNZ(), big.QTableNNZ())
		}
	}
}

// allocatedBy reports the bytes the whole process allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
