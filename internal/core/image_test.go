package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"megh/internal/sim"
	"megh/internal/sparse"
)

// sameState compares two decoded images field by field — nil against empty
// and NaN's bits included, which reflect.DeepEqual gets wrong one way or
// the other. The packed lists, which hold nearly all of an image's bytes,
// are compared as bytes; only the rest is formatted.
func sameState(a, b *persistedState) bool {
	x, y := *a, *b
	for i, l := range x.packed() {
		r := y.packed()[i]
		if (*l == nil) != (*r == nil) || !bytes.Equal(*l, *r) {
			return false
		}
		*l, *r = nil, nil
	}
	return fmt.Sprintf("%#v", x) == fmt.Sprintf("%#v", y)
}

// decodeBytes is decodeImage on img's bytes, with each packed list the
// reader located filled in from img, as gob's decoder fills it.
func decodeBytes(img []byte, verify bool) (*persistedState, error) {
	st, err := decodeImage(bytes.NewReader(img), int64(len(img)), verify)
	if err != nil {
		return nil, err
	}
	for i, f := range st.packed() {
		if l := st.lists[i]; l.Len > 0 {
			*f = img[l.Off : l.Off+l.Len]
		}
	}
	st.src, st.lists = nil, [8]sparse.Section{}
	return st, nil
}

// TestImageIsWhatGobWrites: the hand-written image is, byte for byte, what
// gob writes for the mirror of the learner's tables, framed under the
// frozen definitions, on learners that between them set every field; and
// the reader gives back what gob's decoder does.
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
			want := mirrorImage(t, mirrorOf(m))
			img := imageOf(t, m)
			if !bytes.Equal(img, want) {
				t.Fatalf("the image (%d bytes) is not what gob writes (%d bytes)", len(img), len(want))
			}
			var saved bytes.Buffer
			if err := m.SaveState(&saved); err != nil || !bytes.Equal(saved.Bytes(), want) {
				t.Fatalf("SaveState writes another image (err %v)", err)
			}
			// Counting allocates nothing, the ring is not copied: the one
			// allocation is the write buffer.
			if n := testing.AllocsPerRun(3, func() {
				if _, err := m.WriteImage(io.Discard); err != nil {
					t.Fatal(err)
				}
			}); n != 1 {
				t.Fatalf("writing the image took %.0f allocations", n)
			}

			var gobs persistedState
			if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&gobs); err != nil {
				t.Fatal(err)
			}
			got, err := decodeBytes(img, false)
			if err != nil {
				t.Fatalf("the reader refused this build's own image: %v", err)
			}
			if !sameState(got, &gobs) {
				t.Fatalf("read in place:\n%#v\ngob decodes:\n%#v", *got, gobs)
			}
			verified, err := decodeBytes(img, true)
			if err != nil || verified.NNZHistory != nil {
				t.Fatal("verifying read the image differently, or built NNZHistory")
			}
			verified.NNZHistory = gobs.NNZHistory
			if !sameState(verified, &gobs) {
				t.Fatal("verifying read another image")
			}
		})
	}
}

// The image's layout is frozen, so a field added to, removed from or moved
// within any struct it carries would break it: this fails first, naming the
// place to look. Slot by slot, each field list must name the field the
// mirror of the frozen definitions has there — a retired one by its string,
// a live one by pointing at the Go field of that name — and between them
// the live slots must point at every exported field of the Go struct.
func TestImageCodecKnowsEveryField(t *testing.T) {
	var (
		st persistedState
		c  Config
		ms sparse.MatrixState
		vs sparse.VectorState
	)
	for _, s := range []struct {
		v, frozen any
		fl        fieldList
	}{{&st, imageV2{}, stateFields(&st)}, {&c, configV2{}, configFields(&c)},
		{&ms, matrixV2{}, matrixFields(&ms)}, {&vs, vectorV2{}, vectorFields(&vs)}} {
		rv, frozen := reflect.ValueOf(s.v).Elem(), reflect.TypeOf(s.frozen)
		if frozen.NumField() != s.fl.n {
			t.Errorf("the frozen %s has %d fields, its list in internal/core/image.go %d", rv.Type(), frozen.NumField(), s.fl.n)
			continue
		}
		live := 0
		for i, slot := range s.fl.f[:s.fl.n] {
			name := frozen.Field(i).Name
			if retired, ok := slot.(string); ok {
				if retired != name && !strings.HasSuffix(retired, "."+name) {
					t.Errorf("%s field %d is %s, the retired slot in internal/core/image.go names %s", rv.Type(), i, name, retired)
				}
				continue
			}
			live++
			if f, ok := rv.Type().FieldByName(name); !ok || slot != rv.FieldByIndex(f.Index).Addr().Interface() {
				t.Errorf("%s field %d is %s, but its list in internal/core/image.go has %T there", rv.Type(), i, name, slot)
			}
		}
		exported := 0
		for i := 0; i < rv.NumField(); i++ {
			if rv.Type().Field(i).IsExported() {
				exported++
			}
		}
		if exported != live {
			t.Errorf("%s has %d exported fields, the version-2 image carries %d: a field it does not carry needs a new format",
				rv.Type(), exported, live)
		}
	}
}
