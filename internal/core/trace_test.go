package core

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"megh/internal/sim"
	"megh/internal/trace"
)

// Tracing must be a pure observer: a traced learner and an untraced one,
// given the same seed and world, must make exactly the same decisions.
// This guards the invariant that the trace path never consumes the
// exploration RNG.
func TestTracingDoesNotChangeDecisions(t *testing.T) {
	cfg := tinyConfig(t, 12, 6, 0.5)
	cfg.Steps = 40
	for i := range cfg.Traces {
		// Vary utilization so over- and underload candidates both occur.
		tr := make([]float64, cfg.Steps)
		for s := range tr {
			tr[s] = 0.2 + 0.6*float64((i+s)%5)/4
		}
		cfg.Traces[i] = tr
	}

	run := func(tracer *trace.Tracer) *sim.Result {
		c := cfg
		c.Tracer = tracer
		s, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(DefaultConfig(12, 6, 99))
		if err != nil {
			t.Fatal(err)
		}
		m.Trace(tracer)
		res, err := s.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	tracer, err := trace.New(trace.Options{W: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	plain := run(nil)
	traced := run(tracer)
	// DecideSeconds is wall time and differs between any two runs; every
	// other field must match exactly.
	for i := range plain.Steps {
		plain.Steps[i].DecideSeconds = 0
		traced.Steps[i].DecideSeconds = 0
	}
	if !reflect.DeepEqual(plain.Steps, traced.Steps) {
		t.Fatal("tracing changed the run's step metrics — the trace path consumed RNG or mutated state")
	}
	if tracer.Events() == 0 {
		t.Fatal("traced run emitted no events")
	}
}

// Two same-seed traced runs must produce byte-identical event streams —
// the reproducibility contract meghtrace diff relies on.
func TestSameSeedTracesAreByteIdentical(t *testing.T) {
	cfg := tinyConfig(t, 10, 5, 0.6)
	cfg.Steps = 30

	run := func() []byte {
		var buf bytes.Buffer
		tracer, err := trace.New(trace.Options{W: &buf})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Tracer = tracer
		s, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(DefaultConfig(10, 5, 42))
		if err != nil {
			t.Fatal(err)
		}
		m.Trace(tracer)
		if _, err := s.Run(m); err != nil {
			t.Fatal(err)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no trace output")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed traces differ byte-for-byte")
	}
	events, err := trace.Read(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	res := trace.Diff(events, events, 0)
	if !res.Identical() {
		t.Fatalf("self-diff reports divergence: %+v", res.Divergences)
	}
}

// A disabled tracer must not add a single allocation to the decide path.
func TestDisabledTracerAddsNoAllocations(t *testing.T) {
	snap := tinySnapshot(t, 20, 8)
	baseline, err := New(DefaultConfig(20, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	disabled, err := New(DefaultConfig(20, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	disabled.Trace(nil)

	measure := func(m *Megh) float64 {
		m.Decide(snap) // warm scratch buffers once
		return testing.AllocsPerRun(200, func() { m.Decide(snap) })
	}
	if base, dis := measure(baseline), measure(disabled); dis > base {
		t.Fatalf("disabled tracing allocates: %.1f allocs/op vs %.1f baseline", dis, base)
	}
}

// BenchmarkDecide isolates one full decide cycle (Decide plus cost
// feedback, so the Sherman–Morrison update runs every iteration — the
// production path) on a 150-VM × 100-host world. Compare the
// sub-benchmarks to verify the tracing contract: "disabled" must match
// "no-tracer" in both ns/op and allocs/op, and "enabled" (JSONL sink)
// must stay within a few percent of wall time.
func BenchmarkDecide(b *testing.B) {
	const nVMs, nHosts = 150, 100
	snap := tinySnapshot(b, nVMs, nHosts)

	bench := func(b *testing.B, tracer *trace.Tracer, setTracer bool) {
		m, err := New(DefaultConfig(nVMs, nHosts, 7))
		if err != nil {
			b.Fatal(err)
		}
		if setTracer {
			m.Trace(tracer)
		}
		fb := sim.Feedback{StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Decide(snap)
			m.Observe(&fb)
		}
		reportGridDims(b, nVMs, nHosts)
	}
	newTracer := func(b *testing.B, timings bool) *trace.Tracer {
		tr, err := trace.New(trace.Options{W: io.Discard, RingSize: -1, Timings: timings})
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	// The nocost variant never feeds a step cost back, so the LSPI update
	// (the one legitimate allocation source: Q-table growth) stays out of
	// the loop — this sub-benchmark must report 0 allocs/op, and `make
	// check` gates on it.
	b.Run("no-tracer-nocost", func(b *testing.B) {
		m, err := New(DefaultConfig(nVMs, nHosts, 7))
		if err != nil {
			b.Fatal(err)
		}
		fb := sim.Feedback{StepCost: 0.5}
		for i := 0; i < 2000; i++ { // warm scratch and Q-table
			m.Decide(snap)
			m.Observe(&fb)
		}
		m.haveCost = false
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Decide(snap)
			m.haveCost = false
		}
		reportGridDims(b, nVMs, nHosts)
	})
	b.Run("no-tracer", func(b *testing.B) { bench(b, nil, false) })
	b.Run("disabled", func(b *testing.B) { bench(b, nil, true) })
	b.Run("enabled", func(b *testing.B) { bench(b, newTracer(b, false), true) })
	b.Run("enabled-timings", func(b *testing.B) { bench(b, newTracer(b, true), true) })
	// A ring and no stream, the tracer every meghd session has.
	b.Run("enabled-ring", func(b *testing.B) {
		tr, err := trace.New(trace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, tr, true)
	})
}

// nilWhenNoneFailed hands its learner each snapshot with HostFailed nil
// whenever no host failed, as the service's retained snapshot does.
type nilWhenNoneFailed struct{ *Megh }

func (p nilWhenNoneFailed) Decide(s *sim.Snapshot) []sim.Migration {
	if slices.Contains(s.HostFailed, true) {
		return p.Megh.Decide(s)
	}
	c := *s
	c.HostFailed = nil
	return p.Megh.Decide(&c)
}

// A nil HostFailed means no host failed: one stream, with outages on some
// steps, run once with HostFailed nil on the steps without one and once
// all-false, gives the same decisions, the same trace bytes and the same
// final image.
func TestNilHostFailedMeansNoneFailed(t *testing.T) {
	cfg := tinyConfig(t, 12, 6, 0.5)
	cfg.Steps = 60
	for i := range cfg.Traces {
		tr := make([]float64, cfg.Steps)
		for s := range tr {
			tr[s] = 0.2 + 0.6*float64((i+s)%5)/4
		}
		cfg.Traces[i] = tr
	}
	cfg.Failures = []sim.Failure{{Host: 2, From: 20, Until: 26}, {Host: 4, From: 41, Until: 43}}

	run := func(nilFailed bool) (*sim.Result, []byte, []byte) {
		var buf bytes.Buffer
		tracer, err := trace.New(trace.Options{W: &buf})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Tracer = tracer
		s, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(DefaultConfig(12, 6, 99))
		if err != nil {
			t.Fatal(err)
		}
		m.Trace(tracer)
		var p sim.Policy = m
		if nilFailed {
			p = nilWhenNoneFailed{m}
		}
		res, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		image := imageOf(t, m)
		for i := range res.Steps {
			res.Steps[i].DecideSeconds = 0
		}
		return res, buf.Bytes(), image
	}
	falseRes, falseTrace, falseImage := run(false)
	nilRes, nilTrace, nilImage := run(true)
	if !reflect.DeepEqual(falseRes.Steps, nilRes.Steps) {
		t.Error("a nil HostFailed changed the run's step metrics")
	}
	if len(falseTrace) == 0 || !bytes.Equal(falseTrace, nilTrace) {
		t.Error("a nil HostFailed changed the trace bytes")
	}
	if !bytes.Equal(falseImage, nilImage) {
		t.Error("a nil HostFailed changed the final learner image")
	}
}
