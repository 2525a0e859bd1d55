package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
	"testing"

	"megh/internal/sim"
)

// The committed version-1 fixture was serialised by the original map-of-maps
// sparse implementation (before the slice-backed storage rewrite), element
// by element: triplets and index/value pairs. It must load unchanged into
// the current implementation — checkpoints written by older builds may not
// be orphaned by a storage or format rewrite — and save again as version 2.
func TestLoadStateReadsMapBackedFixture(t *testing.T) {
	m := loadFixture(t, "testdata/checkpoint_v1_mapbacked.gob", 1)
	assertFixtureLearner(t, m)
	assertSavesStablyAsPacked(t, m)
}

// The version-2 fixture is the same learner in the packed format, so it
// pins the same values.
func TestLoadStateReadsPackedFixture(t *testing.T) {
	m := loadFixture(t, "testdata/checkpoint_v2_packed.gob", 2)
	assertFixtureLearner(t, m)
	assertSavesStablyAsPacked(t, m)
}

// The version-2 fixture is, byte for byte, what this build writes for the
// version-1 fixture's learner: a change to the image layout cannot slip in
// without this test (and the version number) noticing.
func TestPackedFixtureIsWhatThisBuildWrites(t *testing.T) {
	want, err := os.ReadFile("testdata/checkpoint_v2_packed.gob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaveFixture(t), want) {
		t.Fatal("saving the version-1 fixture's learner no longer produces checkpoint_v2_packed.gob; " +
			"if the format changed on purpose, bump stateVersion and regenerate (fixture_gen_test.go)")
	}
}

// loadFixture loads a committed image, checking first that it is of the
// format version the test means to cover.
func loadFixture(t *testing.T, path string, version int) *Megh {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st persistedState
	newTestDecoder(t, raw, &st)
	if packed := len(st.B.PackedVals) > 0; st.Version != version || packed != (version == 2) {
		t.Fatalf("%s is a version-%d image (packed: %v), want version %d", path, st.Version, packed, version)
	}
	m, err := LoadState(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s no longer loads: %v", path, err)
	}
	return m
}

// assertFixtureLearner pins the decoded state — not just the absence of
// errors — to the values recorded when the version-1 fixture was generated.
func assertFixtureLearner(t *testing.T, m *Megh) {
	t.Helper()
	if m.cfg.NumVMs != 12 || m.cfg.NumHosts != 6 {
		t.Fatalf("decoded config %d×%d, want 12×6", m.cfg.NumVMs, m.cfg.NumHosts)
	}
	if got, want := m.temp, 1.6464349082820848; got != want {
		t.Fatalf("decoded temperature %v, want %v", got, want)
	}
	if got := m.b.NNZ(); got != 45 {
		t.Fatalf("decoded Q-table NNZ %d, want 45", got)
	}
	if want := []int{64}; !reflect.DeepEqual(m.pending, want) {
		t.Fatalf("decoded pending %v, want %v", m.pending, want)
	}
}

// assertSavesStablyAsPacked: whatever format the learner came from, it
// saves as version 2 with nothing left in the version-1 lists, and from
// there on save → load → save is byte-stable — SaveState consumes no
// randomness and persists the full generator state, so nothing can drift
// across the round-trip.
func assertSavesStablyAsPacked(t *testing.T, m *Megh) {
	t.Helper()
	var first, second bytes.Buffer
	if err := m.SaveState(&first); err != nil {
		t.Fatal(err)
	}
	var st persistedState
	newTestDecoder(t, first.Bytes(), &st)
	if st.Version != 2 || len(st.B.Triplets)+len(st.B.OverriddenDiag)+len(st.Z.Index)+len(st.Theta.Index) != 0 {
		t.Fatalf("re-saved image is version %d and still carries version-1 lists", st.Version)
	}
	m2, err := LoadState(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("round-trip reload failed: %v", err)
	}
	if err := m2.SaveState(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save → load → save is no longer byte-stable")
	}
	if m.temp != m2.temp || m.b.NNZ() != m2.b.NNZ() || !reflect.DeepEqual(m.pending, m2.pending) {
		t.Fatal("round-trip changed learner state")
	}
	if !reflect.DeepEqual(m.b.Dense(), m2.b.Dense()) {
		t.Fatal("B changed across round-trip")
	}
	for i := 0; i < m.d; i++ {
		if m.theta.At(i) != m2.theta.At(i) {
			t.Fatalf("θ[%d] changed across round-trip: %v vs %v", i, m.theta.At(i), m2.theta.At(i))
		}
	}
}

// A version-1 build must refuse a version-2 image outright. v1State is a
// frozen copy of the struct such a build decodes into: gob drops the packed
// fields it has no place for, so B, z and θ arrive empty — what stands
// between that and a silently emptied Q-table is the version check, which
// is why the number had to move with the layout.
func TestVersion1ReaderRefusesVersion2Image(t *testing.T) {
	type v1Vector struct {
		Dim   int
		Index []int
		Value []float64
	}
	type v1Triplet struct {
		Row, Col int
		Val      float64
	}
	type v1Matrix struct {
		Dim            int
		Diag           float64
		DropTol        float64
		Triplets       []v1Triplet
		OverriddenDiag []int
	}
	type v1State struct {
		Version  int
		Config   Config
		Temp     float64
		B        v1Matrix
		Z, Theta v1Vector
		Pending  []int
	}
	raw, err := os.ReadFile("testdata/checkpoint_v2_packed.gob")
	if err != nil {
		t.Fatal(err)
	}
	var st v1State
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
		t.Fatalf("a version-1 struct cannot even decode the image: %v", err)
	}
	if len(st.B.Triplets) != 0 || len(st.Theta.Index) != 0 {
		t.Fatal("test premise broken: the version-1 struct found data in a packed image")
	}
	// The version-1 reader's gate, verbatim: `st.Version != stateVersion`
	// with stateVersion = 1.
	if st.Version == 1 {
		t.Fatal("a packed image carries version 1: a version-1 build would restore it as an empty Q-table")
	}
}

// A learner restored from the map-backed fixture must keep scheduling:
// resuming the same world for more steps exercises the restored Q-table,
// θ mirror and pending update end to end on the new storage.
func TestMapBackedFixtureResumesScheduling(t *testing.T) {
	raw, err := os.ReadFile("testdata/checkpoint_v1_mapbacked.gob")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadState(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t, 12, 6, 0.5)
	cfg.Steps = 40
	for i := range cfg.Traces {
		tr := make([]float64, cfg.Steps)
		for s := range tr {
			tr[s] = 0.15 + 0.7*float64((i+s)%6)/5
		}
		cfg.Traces[i] = tr
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(m)
	if err != nil {
		t.Fatalf("restored learner failed to resume: %v", err)
	}
	if len(res.Steps) != cfg.Steps {
		t.Fatalf("resumed run produced %d steps, want %d", len(res.Steps), cfg.Steps)
	}
}
