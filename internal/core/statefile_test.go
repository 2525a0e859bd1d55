package core

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"megh/internal/sim"
)

// trainedLearner runs a short workload through a fresh learner so its
// checkpoint carries non-trivial B, θ, z, and history.
func trainedLearner(t *testing.T) *Megh {
	t.Helper()
	m, err := New(DefaultConfig(6, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snapshotStream(t, 6, 3, 12) {
		if i > 0 {
			m.Observe(&sim.Feedback{Step: i - 1, StepCost: 0.4})
		}
		m.Decide(s)
	}
	return m
}

func TestSaveStateFileRoundTrip(t *testing.T) {
	m := trainedLearner(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "learner.ckpt")
	if err := m.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config() != m.Config() {
		t.Fatalf("restored config %+v, want %+v", got.Config(), m.Config())
	}
	if !reflect.DeepEqual(got.b.Triplets(), m.b.Triplets()) {
		t.Fatal("restored B differs from the saved learner")
	}
	if !reflect.DeepEqual(cellVector(got, got.b.Theta), cellVector(m, m.b.Theta)) {
		t.Fatal("restored θ differs from the saved learner")
	}
	if !reflect.DeepEqual(cellVector(got, got.b.Z), cellVector(m, m.b.Z)) {
		t.Fatal("restored z differs from the saved learner")
	}
	// The atomic write must not leave its temp file behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "learner.ckpt" {
		t.Fatalf("checkpoint directory holds %v, want only learner.ckpt", entries)
	}
}

// TestSaveStateFileBareFilename: a path with no directory component writes
// into the current directory (the temp file needs an explicit "." there).
func TestSaveStateFileBareFilename(t *testing.T) {
	m := trainedLearner(t)
	t.Chdir(t.TempDir())
	if err := m.SaveStateFile("learner.ckpt"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("learner.ckpt"); err != nil {
		t.Fatal(err)
	}
}

func TestSaveStateFileErrors(t *testing.T) {
	m := trainedLearner(t)
	// The destination directory does not exist: temp-file creation fails.
	missing := filepath.Join(t.TempDir(), "missing", "x.ckpt")
	if err := m.SaveStateFile(missing); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	// The destination path is an existing directory: the rename fails and
	// the already-written temp file must be cleaned up.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "isdir")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveStateFile(blocked); err == nil {
		t.Fatal("save onto a directory path succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file left behind after failed rename: %v", entries)
	}
}

func TestLoadStateFileErrors(t *testing.T) {
	// A missing checkpoint keeps fs.ErrNotExist semantics so callers can
	// distinguish "no checkpoint yet" from a corrupt one.
	if _, err := LoadStateFile(filepath.Join(t.TempDir(), "none.ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint error = %v, want fs.ErrNotExist", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStateFile(bad); err == nil {
		t.Fatal("corrupt checkpoint loaded")
	}
	// A real checkpoint with bytes appended is refused, not read up to the
	// end of its image.
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	img := imageOf(t, m)
	padded := filepath.Join(t.TempDir(), "padded.ckpt")
	if err := os.WriteFile(padded, append(img, 0, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStateFile(padded); err == nil || err.Error() != "core: decoding learner state: 3 bytes after the image" {
		t.Fatalf("checkpoint with 3 trailing bytes: err %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSaveStatePropagatesWriteError(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveState(failWriter{}); err == nil {
		t.Fatal("encode onto a failing writer succeeded")
	}
}

// failAt passes writes through to w until byte k, and fails the write that
// reaches it.
type failAt struct {
	w       io.Writer
	k, done int
}

var errFailAt = errors.New("disk full")

func (f *failAt) Write(p []byte) (int, error) {
	if f.done+len(p) <= f.k {
		f.done += len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.k-f.done])
	f.done += n
	return n, errFailAt
}

// TestWriteImageFailsPartWay: a write that fails at byte k — in the
// framing, inside each packed list, in the tail — is WriteImage's error
// after exactly the image's first k bytes, and WriteFileAtomic then leaves
// the previous image byte-identical and no temp file.
func TestWriteImageFailsPartWay(t *testing.T) {
	m := checkpointLearner(t)
	img := imageOf(t, m)
	im := readMirror(t, img)
	ks := []int{0, len(imagePrefix)}
	at := len(imagePrefix)
	for _, l := range [][]byte{im.B.PackedRows, im.B.PackedCols, im.B.PackedVals, im.B.PackedDiag,
		im.Z.PackedIndex, im.Z.PackedValue, im.Theta.PackedIndex, im.Theta.PackedValue} {
		head := appendGobUint(nil, uint64(len(l)))
		i := bytes.Index(img[at:], append(head, l...))
		if len(l) == 0 || i < 0 {
			t.Fatalf("a packed list of %d bytes is not in the image after byte %d", len(l), at)
		}
		at += i + len(head)
		ks = append(ks, at+len(l)/2)
		at += len(l)
	}
	ks = append(ks, len(img)-1)

	path := filepath.Join(t.TempDir(), "learner.ckpt")
	if err := m.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		var got bytes.Buffer
		if _, err := m.WriteImage(&failAt{w: &got, k: k}); !errors.Is(err, errFailAt) {
			t.Fatalf("k=%d: WriteImage returned %v", k, err)
		}
		if !bytes.Equal(got.Bytes(), img[:k]) {
			t.Fatalf("k=%d: %d bytes went out before the failure, not the image's first %d", k, got.Len(), k)
		}
		if _, err := WriteFileAtomic(path, func(w io.Writer) (int64, error) {
			return m.WriteImage(&failAt{w: w, k: k})
		}); !errors.Is(err, errFailAt) {
			t.Fatalf("k=%d: WriteFileAtomic returned %v", k, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, img) {
			t.Fatalf("k=%d: the failed write disturbed the previous image (err=%v)", k, err)
		}
		if leftovers, _ := filepath.Glob(path + ".tmp-*"); len(leftovers) != 0 {
			t.Fatalf("k=%d: stray temp files: %v", k, leftovers)
		}
	}
}
