//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so what
// the image reader's pooled windows save is measured only without it.

package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A replica PUT verifies the image where it lies: no copy of it, and no
// NNZHistory, which only a restore reads. The reader's windows come from a
// pool, which the first call fills.
func TestVerifyImageAllocatesNoCopy(t *testing.T) {
	img := imageOf(t, checkpointLearner(t))
	verify := func() {
		if err := VerifyImage(img); err != nil {
			t.Fatal(err)
		}
	}
	verify()
	if got := allocatedBy(verify); got > 1024 {
		t.Fatalf("verifying a %d-byte image allocated %d bytes", len(img), got)
	}
}

// A restore reads its file where it lies, through the verifier's windows:
// LoadStateFile allocates the learner it builds, and not the image as
// well, as LoadState of the same bytes must.
func TestLoadStateFileHoldsNoImage(t *testing.T) {
	m := checkpointLearner(t)
	path := filepath.Join(t.TempDir(), "learner.ckpt")
	if err := m.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := func() {
		if _, err := LoadStateFile(path); err != nil {
			t.Fatal(err)
		}
	}
	fromBytes := func() {
		if _, err := LoadState(bytes.NewReader(img)); err != nil {
			t.Fatal(err)
		}
	}
	fromFile() // fills the windows' pool
	onFile, inMemory := allocatedBy(fromFile), allocatedBy(fromBytes)
	if float64(inMemory)-float64(onFile) < 0.9*float64(len(img)) {
		t.Fatalf("restoring a %d-byte image from its file allocated %d bytes, from its bytes %d: want the image's size less",
			len(img), onFile, inMemory)
	}
}
