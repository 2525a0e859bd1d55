package core

import (
	"bytes"
	"os"
	"testing"
)

// TestGenerateCheckpointFixture regenerates testdata/checkpoint_v2_packed.gob,
// the committed image of the current (version-2, packed) format, as this
// build's image of the learner the fixture holds. Run manually with
// MEGH_WRITE_FIXTURE=1, and only for a deliberate format change —
// TestPackedFixtureIsWhatThisBuildWrites holds the encoder to these bytes.
//
// The learner was first written by the original map-backed sparse
// implementation in the version-1 format, which this build refuses; the
// fixture is that learner re-saved, and must never be replaced by another.
func TestGenerateCheckpointFixture(t *testing.T) {
	if os.Getenv("MEGH_WRITE_FIXTURE") == "" {
		t.Skip("set MEGH_WRITE_FIXTURE=1 to regenerate the checkpoint fixture")
	}
	if err := os.WriteFile("testdata/checkpoint_v2_packed.gob", resaveFixture(t), 0o644); err != nil {
		t.Fatal(err)
	}
}

// resaveFixture loads the version-2 fixture and returns this build's image
// of it.
func resaveFixture(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/checkpoint_v2_packed.gob")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadState(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("packed checkpoint no longer loads: %v", err)
	}
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
