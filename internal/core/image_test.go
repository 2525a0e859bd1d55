package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"megh/internal/sim"
	"megh/internal/sparse"
)

// gobImage is SaveState as it was before the image was written by hand:
// assemble persistedState from the State() calls (gobState) and let gob
// encode it. It is the oracle the hand-written encoder must match byte for
// byte.
func gobImage(t testing.TB, m *Megh) []byte {
	t.Helper()
	var buf bytes.Buffer
	encodeTestState(t, &buf, gobState(m))
	return buf.Bytes()
}

func gobState(m *Megh) persistedState {
	s0, s1 := m.rng.state()
	return persistedState{
		Version:      stateVersion,
		Config:       m.cfg,
		Temp:         m.temp,
		B:            m.b.State(),
		Z:            m.z.State(),
		Theta:        m.theta.Vector().State(),
		Pending:      append([]int(nil), m.pending...),
		PendingTotal: m.pendingTotal,
		StepCost:     m.stepCost,
		HaveCost:     m.haveCost,
		NNZHistory:   append([]int(nil), m.NNZHistory()...),
		RngState:     []uint64{s0, s1},
	}
}

// sameState compares two decoded images field by field — nil against empty
// and NaN's bits included, which reflect.DeepEqual gets wrong one way or
// the other.
func sameState(a, b *persistedState) bool {
	return fmt.Sprintf("%#v", *a) == fmt.Sprintf("%#v", *b)
}

// TestImageIsWhatGobWrites: the hand-written image is, byte for byte, what
// gob writes for the persistedState SaveState used to assemble, on learners
// that between them set every field; and the in-place reader gives back
// what gob's decoder does.
func TestImageIsWhatGobWrites(t *testing.T) {
	stepped := func(cfg Config, steps int) *Megh {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := tinySnapshot(t, cfg.NumVMs, cfg.NumHosts)
		for i := 0; i < steps; i++ {
			snap.Step = i
			m.Decide(snap)
			m.Observe(&sim.Feedback{Step: i, StepCost: 0.25 + float64(i%3)})
		}
		return m
	}
	fresh, err := New(DefaultConfig(4, 3, 5))
	if err != nil {
		t.Fatal(err)
	}

	ringCfg := DefaultConfig(12, 6, 3)
	ringCfg.NNZHistoryCap = 5
	ring := stepped(ringCfg, 12)
	if ring.nnzStart == 0 {
		t.Fatal("the NNZ ring did not wrap")
	}

	unboundedCfg := DefaultConfig(12, 6, 6)
	unboundedCfg.NNZHistoryCap = -1
	pending := stepped(unboundedCfg, 9)
	snap := tinySnapshot(t, 12, 6)
	snap.Step = 9
	pending.Decide(snap)
	pending.Observe(&sim.Feedback{Step: 9, StepCost: 1.5})
	if len(pending.pending) == 0 || !pending.haveCost || pending.pendingTotal == 0 {
		t.Fatalf("pending %v, haveCost %v: the learner is not mid-update", pending.pending, pending.haveCost)
	}

	lazy, err := New(DefaultConfig(1100, 1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range []int{1023, 70001, 555555, 1099999, 70001} {
		lazy.update(a, (a*7+i)%lazy.d, 0.5+float64(i))
	}

	for name, m := range map[string]*Megh{
		"fresh":                  fresh,
		"BenchmarkCheckpoint":    checkpointLearner(t),
		"wrapped NNZ ring":       ring,
		"pending with its cost":  pending,
		"lazily paged 1100x1000": lazy,
	} {
		t.Run(name, func(t *testing.T) {
			want := gobImage(t, m)
			img, err := m.AppendImage(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, want) {
				t.Fatalf("the image (%d bytes) is not what gob writes (%d bytes)", len(img), len(want))
			}
			var saved bytes.Buffer
			if err := m.SaveState(&saved); err != nil || !bytes.Equal(saved.Bytes(), want) {
				t.Fatalf("SaveState writes another image (err %v)", err)
			}

			var gobs persistedState
			newTestDecoder(t, img, &gobs)
			got := decodeImage(img, false)
			if got == nil {
				t.Fatal("the in-place reader refused this build's own image")
			}
			if !sameState(got, &gobs) {
				t.Fatalf("read in place:\n%#v\ngob decodes:\n%#v", *got, gobs)
			}
			verified := decodeImage(img, true)
			if verified == nil || verified.NNZHistory != nil {
				t.Fatal("verifying read the image differently, or built NNZHistory")
			}
			verified.NNZHistory = gobs.NNZHistory
			if !sameState(verified, &gobs) {
				t.Fatal("verifying read another image")
			}
		})
	}
}

// Adding, removing or reordering a field of any struct of the image changes
// what gob writes, and the hand-written codec would go on with the old
// layout: this fails first, naming the place to teach. Entry i of each
// field list must point at the struct's i-th exported field (gob's field
// number i), and only the version-1 lists and the retired Deferred queue
// may be left nil.
func TestImageCodecKnowsEveryField(t *testing.T) {
	var (
		st persistedState
		c  Config
		ms sparse.MatrixState
		vs sparse.VectorState
	)
	gobOnly := map[string]bool{"Triplets": true, "OverriddenDiag": true, "Index": true, "Value": true, "Deferred": true}
	for _, s := range []struct {
		v  any
		fl fieldList
	}{{&st, stateFields(&st)}, {&c, configFields(&c)}, {&ms, matrixFields(&ms)}, {&vs, vectorFields(&vs)}} {
		fields := s.fl.f[:s.fl.n]
		rv := reflect.ValueOf(s.v).Elem()
		var exported []reflect.StructField
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Type().Field(i); f.IsExported() {
				exported = append(exported, f)
			}
		}
		if len(exported) != len(fields) {
			t.Errorf("%s has %d exported fields, the checkpoint image codec knows %d: teach the change to "+
				"its field list in internal/core/image.go, or the image stops being what gob writes",
				rv.Type(), len(exported), len(fields))
			continue
		}
		for i, f := range exported {
			want := rv.FieldByIndex(f.Index).Addr().Interface()
			if got := fields[i]; got != want && !(got == nil && gobOnly[f.Name]) {
				t.Errorf("%s field %d is %s, but the checkpoint image codec's field list in internal/core/image.go has %T there",
					rv.Type(), i, f.Name, got)
			}
		}
	}
}

// A replica PUT verifies the image where it lies: no copy of it, and no
// NNZHistory, which only a restore reads.
func TestVerifyImageAllocatesNoCopy(t *testing.T) {
	m := checkpointLearner(t)
	img, err := m.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := allocatedBy(func() {
		if err := VerifyImage(img); err != nil {
			t.Fatal(err)
		}
	}); got > 1024 {
		t.Fatalf("verifying a %d-byte image allocated %d bytes", len(img), got)
	}
}
