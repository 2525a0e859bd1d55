package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"megh/internal/sim"
	"megh/internal/sparse"
)

// FuzzCheckpointLoad feeds arbitrary bytes to the checkpoint verifier and
// loader. Neither may panic; VerifyImage must accept exactly what LoadState
// accepts and refuse the rest with the same error; whatever the reader
// takes, gob's decoder — the oracle — must take too and read into the same
// state; and anything accepted must behave like a real checkpoint:
// re-saving is possible and the save → load → save cycle is byte-stable.
func FuzzCheckpointLoad(f *testing.F) {
	// Seed with a genuine checkpoint from a learner holding non-trivial
	// state, plus a truncation of it and a couple of obvious non-gobs.
	m, err := New(DefaultConfig(4, 3, 5))
	if err != nil {
		f.Fatal(err)
	}
	snap := tinySnapshotN(f, 4, 3)
	for i := 0; i < 8; i++ {
		snap.Step = i
		m.Decide(snap)
		m.Observe(&sim.Feedback{Step: i, EnergyCost: 1, SLACost: 0.5, ResourceCost: 0.25, StepCost: 1.75})
	}
	var seed bytes.Buffer
	if err := m.SaveState(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	// The same image carrying a queue of the removed deferred-update mode,
	// which is refused wherever it is read.
	queued := readMirror(f, seed.Bytes())
	queued.Deferred = []deferredV2{{A: 1, B: 2, N: 1, C: 0.5}}
	f.Add(mirrorImage(f, queued))
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	// A world past the eager budget, so the loader's page-on-touch side is
	// in the corpus too: 1 100 VMs × 1 000 hosts, a few transitions old.
	lazy, err := New(DefaultConfig(1100, 1000, 5))
	if err != nil {
		f.Fatal(err)
	}
	for i, a := range []int{1023, 70001, 555555, 1099999, 70001} {
		lazy.update(a, (a*7+i)%lazy.d, 0.5+float64(i))
	}
	var lazySeed bytes.Buffer
	if err := lazy.SaveState(&lazySeed); err != nil {
		f.Fatal(err)
	}
	f.Add(lazySeed.Bytes())
	// z and θ entries at an action with no B entry, which restore numbers a
	// record for.
	orphan, _ := orphanCells(f, lazy)
	f.Add(mirrorImage(f, orphan))
	// The committed fixture; a packed image gone wrong in the packed lists
	// themselves (a repeated column, a stored zero); and the same image
	// carrying version-1 forms, which are refused.
	raw, err := os.ReadFile("testdata/checkpoint_v2_packed.gob")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, corrupt := range []func(*imageV2){
		func(st *imageV2) { st.B.PackedCols[1] = 0 },
		func(st *imageV2) { copy(st.B.PackedVals, make([]byte, 8)) },
		func(st *imageV2) { st.Version = 1 },
		func(st *imageV2) { st.B.Triplets = []sparse.Triplet{{Row: 1, Col: 2, Val: 0.5}} },
		func(st *imageV2) { st.Config.DeferThreshold = 1e-3 },
	} {
		st := readMirror(f, seed.Bytes())
		corrupt(&st)
		f.Add(mirrorImage(f, st))
	}
	// Padding inside the value message, after the state's closing 0.
	img := seed.Bytes()
	r := imageReader{c: sparse.NewCursor(bytes.NewReader(img), sparse.Section{Off: int64(len(imagePrefix)), Len: int64(len(img) - len(imagePrefix))})}
	r.uint()
	msg := img[int64(len(img))-r.c.Left():]
	r.c.Close()
	f.Add(append(appendGobUint([]byte(imagePrefix), uint64(len(msg)+1)), append(bytes.Clone(msg), 0)...))
	// An image many of the readers' windows long; the same image cut short
	// where PackedCols and PackedVals cross a window's edge, which the
	// message's framing refuses; and the same lists cut there inside
	// consistent framing, which the list checks refuse.
	img = imageOf(f, windowsLongLearner(f))
	f.Add(img)
	lists := mustDecode(f, img).lists
	const window = 8 << 10 // sparse's Cursor window
	for _, at := range []int64{lists[1].Off + window, lists[2].Off + window, lists[2].Off + 2*window + 3} {
		f.Add(img[:at])
	}
	for _, cut := range []func(*imageV2){
		func(st *imageV2) { st.B.PackedCols = st.B.PackedCols[:window+1] },
		func(st *imageV2) { st.B.PackedVals = st.B.PackedVals[:2*window] },
		func(st *imageV2) { st.B.PackedVals = st.B.PackedVals[:window+4] },
	} {
		st := readMirror(f, img)
		cut(&st)
		f.Add(mirrorImage(f, st))
	}

	path := filepath.Join(f.TempDir(), "image")
	f.Fuzz(func(t *testing.T, data []byte) {
		// Resource guard, not an oracle: a restored learner costs what its
		// image holds plus a page table and per-VM and per-host scratch
		// sized by the declared world — up to 90 MiB at Validate's
		// ceilings. Keep each exec to about a megabyte: worlds up to twice
		// the eager budget, so both page policies run; rejection paths
		// don't care.
		var st persistedState
		gobErr := gob.NewDecoder(bytes.NewReader(data)).Decode(&st)
		if in, err := decodeBytes(data, false); err == nil {
			if gobErr != nil {
				t.Fatalf("read in place, but gob refuses it: %v", gobErr)
			}
			if !sameState(in, &st) {
				t.Fatalf("read in place:\n%#v\ngob decodes:\n%#v", *in, st)
			}
		}
		if gobErr == nil {
			if n, h := st.Config.NumVMs, st.Config.NumHosts; n > 4096 || h > 4096 || (n > 0 && h > 2<<20/n) {
				return
			}
		}
		// Every source reads alike: the bytes, and a file that holds them.
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ferr := VerifyImageAt(file, int64(len(data)))
		file.Close()
		verr := VerifyImage(data)
		back, err := LoadState(bytes.NewReader(data))
		fromFile, lerr := LoadStateFile(path)
		for _, other := range []error{ferr, err, lerr} {
			if (verr == nil) != (other == nil) || (other != nil && verr.Error() != other.Error()) {
				t.Fatalf("VerifyImage says %v, the file's verify %v, LoadState %v, LoadStateFile %v", verr, ferr, err, lerr)
			}
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if !bytes.Equal(imageOf(t, back), imageOf(t, fromFile)) {
			t.Fatal("LoadState and LoadStateFile restore different learners")
		}
		var first, second bytes.Buffer
		if err := back.SaveState(&first); err != nil {
			t.Fatalf("accepted checkpoint cannot re-save: %v", err)
		}
		again, err := LoadState(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("our own save does not load: %v", err)
		}
		if err := again.SaveState(&second); err != nil {
			t.Fatalf("second save failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save → load → save is not byte-stable for accepted input")
		}
	})
}

// windowsLongLearner's image is many of the readers' windows long: 2 000
// transitions on a 60 × 40 world leave B 5 640 entries, a 99 KB image in
// which PackedCols and PackedVals are each longer than a window.
func windowsLongLearner(tb testing.TB) *Megh {
	m, err := New(DefaultConfig(60, 40, 5))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		a := (i * 7919) % m.d
		m.update(a, (a*7+i)%m.d, 0.5+float64(i%5))
	}
	return m
}

// mustDecode is decodeImage on img's bytes, which must decode.
func mustDecode(tb testing.TB, img []byte) *persistedState {
	tb.Helper()
	st, err := decodeImage(bytes.NewReader(img), int64(len(img)), false)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// A source that fails part-way — a disk error under the file — is reported
// as that failure, whichever reader meets it: the framing's or a packed
// list's.
func TestImageReadFailuresAreReported(t *testing.T) {
	img := imageOf(t, windowsLongLearner(t))
	lists := mustDecode(t, img).lists
	broken := errors.New("disk on fire")
	for name, at := range map[string]int64{
		"framing": int64(len(img)) - 3, "PackedCols": lists[1].Off + 9000, "PackedVals": lists[2].Off + 20000,
	} {
		src := failingSource{bytes.NewReader(img), at, broken}
		if err := VerifyImageAt(src, int64(len(img))); !errors.Is(err, broken) {
			t.Errorf("%s: a read failing at byte %d gave %v", name, at, err)
		}
		if _, err := loadImage(src, int64(len(img))); !errors.Is(err, broken) {
			t.Errorf("%s: a restore reading past byte %d gave %v", name, at, err)
		}
	}
	if err := VerifyImageAt(bytes.NewReader(img[:len(img)/2]), int64(len(img))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("an image shorter than its size gave %v", err)
	}
}

// failingSource reads r, but a read reaching byte at fails with err.
type failingSource struct {
	r   io.ReaderAt
	at  int64
	err error
}

func (s failingSource) ReadAt(p []byte, off int64) (int, error) {
	if off <= s.at && s.at < off+int64(len(p)) {
		n, _ := s.r.ReadAt(p[:s.at-off], off)
		return n, s.err
	}
	return s.r.ReadAt(p, off)
}
