package core

import (
	"bytes"
	"os"
	"testing"
)

// TestGenerateCheckpointFixture regenerates testdata/checkpoint_v2_packed.gob,
// the committed image of the current (version-2, packed) format: the learner
// in checkpoint_v1_mapbacked.gob, loaded and saved again by this build, so
// both fixtures pin one learner in the two formats. Run manually with
// MEGH_WRITE_FIXTURE=1, and only for a deliberate format change —
// TestPackedFixtureIsWhatThisBuildWrites holds the encoder to these bytes.
//
// checkpoint_v1_mapbacked.gob itself was written by the original map-backed
// sparse implementation in the version-1 format, which no build can write
// any more; it is the backward-compatibility anchor for LoadState and must
// never be replaced.
func TestGenerateCheckpointFixture(t *testing.T) {
	if os.Getenv("MEGH_WRITE_FIXTURE") == "" {
		t.Skip("set MEGH_WRITE_FIXTURE=1 to regenerate the checkpoint fixture")
	}
	if err := os.WriteFile("testdata/checkpoint_v2_packed.gob", resaveFixture(t), 0o644); err != nil {
		t.Fatal(err)
	}
}

// resaveFixture loads the version-1 fixture and returns this build's image
// of it.
func resaveFixture(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/checkpoint_v1_mapbacked.gob")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadState(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("map-backed checkpoint no longer loads: %v", err)
	}
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
