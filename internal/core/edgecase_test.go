package core

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"megh/internal/obs"
	"megh/internal/sim"
	"megh/internal/trace"
)

// TestValidateRejectsBadDeferParameters: the retired deferred-update
// parameters are no Config fields any more, but the image still has their
// slots; one that sets either, to any value, is refused naming it.
func TestValidateRejectsBadDeferParameters(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		mutate func(*configV2)
		field  string
	}{
		"nan-defer-threshold":      {func(c *configV2) { c.DeferThreshold = math.NaN() }, "DeferThreshold"},
		"inf-defer-threshold":      {func(c *configV2) { c.DeferThreshold = math.Inf(1) }, "DeferThreshold"},
		"negative-defer-threshold": {func(c *configV2) { c.DeferThreshold = -1 }, "DeferThreshold"},
		"positive-defer-threshold": {func(c *configV2) { c.DeferThreshold = 1e-3 }, "DeferThreshold"},
		"negative-defer-max-age":   {func(c *configV2) { c.DeferMaxAge = -1 }, "DeferMaxAge"},
		"positive-defer-max-age":   {func(c *configV2) { c.DeferMaxAge = 8 }, "DeferMaxAge"},
	} {
		t.Run(name, func(t *testing.T) {
			st := mirrorOf(m)
			tc.mutate(&st.Config)
			assertRefused(t, mirrorImage(t, st), "Config."+tc.field+" is set")
		})
	}
}

// TestInstrumentNilDetaches: a nil registry disables instrumentation, and a
// subsequent Decide must not touch the detached instruments.
func TestInstrumentNilDetaches(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.Instrument(reg)
	m.Instrument(nil)
	if m.metrics != nil {
		t.Fatal("nil registry left instruments attached")
	}
	m.Decide(tinySnapshot(t, 2, 2))
	if got := reg.Histogram("megh_decide_seconds", "", nil).Count(); got != 0 {
		t.Fatalf("detached registry still observed %d decides", got)
	}
}

// TestObserveReusesRejectedScratch: the second rejection-bearing Observe
// must reuse (clear) the scratch map the first one allocated.
func TestObserveReusesRejectedScratch(t *testing.T) {
	m := trainedLearner(t)
	snaps := snapshotStream(t, 6, 3, 2)
	fb := &sim.Feedback{StepCost: 0.2, Rejected: []sim.Migration{{VM: 0, Dest: 1}}}
	m.Decide(snaps[0])
	m.Observe(fb)
	if m.rejectedScratch == nil {
		t.Fatal("first rejection-bearing Observe did not allocate the scratch map")
	}
	m.Decide(snaps[1])
	m.Observe(fb)
}

// TestDecideRecordsTimingSpans: a Timings-enabled tracer switches Decide
// onto the span-recording path.
func TestDecideWithTimingsTracer(t *testing.T) {
	m, err := New(DefaultConfig(4, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.New(trace.Options{W: io.Discard, RingSize: -1, Timings: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Trace(tr)
	m.Decide(tinySnapshot(t, 4, 3))
	if m.spans == nil {
		t.Fatal("Timings tracer did not arm span recording")
	}
}

func TestXrandStateEdgeCases(t *testing.T) {
	x := newXrand(1)
	x.setState(0, 0)
	if s0, s1 := x.state(); s0|s1 == 0 {
		t.Fatal("all-zero state accepted; the generator would be stuck")
	}
	if v := x.Int63(); v < 0 {
		t.Fatalf("Int63 = %d, want non-negative", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	x.Intn(0)
}

func TestLoadStateRejectsCorruptSparseState(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	base := savedMirror(t, m)
	d := base.B.Dim
	for name, mutate := range map[string]func(*imageV2){
		"corrupt-B": func(st *imageV2) { st.B.Dim = -1 },
		// One stored 1.0 at index d, out of range.
		"corrupt-z": func(st *imageV2) {
			st.Z = vectorV2{Dim: d, PackedIndex: []byte{byte(d)}, PackedValue: []byte{6: 0xf0, 7: 0x3f}}
		},
		// Index 1 listed twice, holding 1.0 each time.
		"corrupt-theta": func(st *imageV2) {
			st.Theta = vectorV2{Dim: d, PackedIndex: []byte{1, 0}, PackedValue: []byte{6: 0xf0, 7: 0x3f, 14: 0xf0, 15: 0x3f}}
		},
		// A self-consistent matrix of the wrong dimension must be refused,
		// not silently adopted.
		"dim-mismatch": func(st *imageV2) { st.B.Dim = d + 1 },
	} {
		t.Run(name, func(t *testing.T) {
			st := base
			mutate(&st)
			if _, err := LoadState(bytes.NewReader(mirrorImage(t, st))); err == nil {
				t.Fatal("corrupt persisted state loaded without error")
			}
		})
	}
}

// TestLoadStateTrimsLegacyNNZHistory: a checkpoint written before the
// history ring existed may carry an arbitrarily long series; loading keeps
// only the newest cap entries.
func TestLoadStateTrimsLegacyNNZHistory(t *testing.T) {
	cfg := DefaultConfig(2, 2, 1)
	cfg.NNZHistoryCap = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := savedMirror(t, m)
	st.NNZHistory = []int{1, 2, 3, 4, 5, 6, 7}
	got, err := LoadState(bytes.NewReader(mirrorImage(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(got.NNZHistory(), want) {
		t.Fatalf("restored history %v, want newest-cap %v", got.NNZHistory(), want)
	}
}
