package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"megh/internal/sim"
)

// The committed version-2 fixture holds a learner first serialised by the
// original map-of-maps sparse implementation (before the slice-backed
// storage rewrite), re-saved in the packed format. It must load unchanged
// into the current implementation — checkpoints written by older builds of
// this format may not be orphaned by a storage rewrite.
func TestLoadStateReadsPackedFixture(t *testing.T) {
	m := loadFixture(t)
	assertFixtureLearner(t, m)
	assertSavesStablyAsPacked(t, m)
}

// The version-2 fixture is, byte for byte, what this build writes for the
// learner it holds: a change to the image layout cannot slip in without
// this test (and the version number) noticing.
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

// loadFixture loads the committed image, checking first that it is the
// packed version-2 format the test means to cover.
func loadFixture(t *testing.T) *Megh {
	t.Helper()
	const path = "testdata/checkpoint_v2_packed.gob"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := readMirror(t, raw)
	if st.Version != 2 || len(st.B.PackedVals) == 0 {
		t.Fatalf("%s is a version-%d image (%d packed B bytes), want a packed version 2", path, st.Version, len(st.B.PackedVals))
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

// assertSavesStablyAsPacked: the learner saves as version 2 with nothing in
// the version-1 lists, and save → load → save is byte-stable — SaveState
// consumes no randomness and persists the full generator state, so nothing
// can drift across the round-trip.
func assertSavesStablyAsPacked(t *testing.T, m *Megh) {
	t.Helper()
	var first, second bytes.Buffer
	if err := m.SaveState(&first); err != nil {
		t.Fatal(err)
	}
	st := readMirror(t, first.Bytes())
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

// A learner restored from the packed fixture must keep scheduling: resuming
// the same world for more steps exercises the restored Q-table, θ mirror
// and pending update end to end on the current storage.
func TestPackedFixtureResumesScheduling(t *testing.T) {
	m := loadFixture(t)
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
