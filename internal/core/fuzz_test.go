package core

import (
	"bytes"
	"encoding/gob"
	"os"
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
	r := imageReader{b: seed.Bytes()[len(imagePrefix):]}
	r.uint()
	f.Add(append(appendGobUint([]byte(imagePrefix), uint64(len(r.b)+1)), append(bytes.Clone(r.b), 0)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Resource guard, not an oracle: a restored learner costs what its
		// image holds plus a page table and per-VM and per-host scratch
		// sized by the declared world — up to 90 MiB at Validate's
		// ceilings. Keep each exec to about a megabyte: worlds up to twice
		// the eager budget, so both page policies run; rejection paths
		// don't care.
		var st persistedState
		gobErr := gob.NewDecoder(bytes.NewReader(data)).Decode(&st)
		if in, err := decodeImage(data, false); err == nil {
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
		verr := VerifyImage(data)
		back, err := LoadState(bytes.NewReader(data))
		if (verr == nil) != (err == nil) || (err != nil && verr.Error() != err.Error()) {
			t.Fatalf("VerifyImage says %v, LoadState says %v", verr, err)
		}
		if err != nil {
			return // rejected input is fine; panics are not
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
