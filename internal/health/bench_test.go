package health_test

import (
	"testing"

	"megh/internal/core"
	"megh/internal/health"
	"megh/internal/sim"
)

// BenchmarkDecideHealth prices the always-on health layer against the
// production decide cycle (Decide plus cost feedback, so the
// Sherman–Morrison update runs every iteration) on the same 150-VM ×
// 100-host world core's BenchmarkDecide uses. Compare the sub-benchmarks:
// "on-default-cadence" must stay within a few percent of "off" — the
// overhead budget DESIGN.md's health section commits to — because the
// per-decide work is one cumulative-stats diff and a handful of EWMAs;
// the O(sample·row) probes amortize across the cadence.
func BenchmarkDecideHealth(b *testing.B) {
	const nVMs, nHosts = 150, 100
	snap := testWorld(b, nVMs, nHosts)
	fb := sim.Feedback{StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1}

	b.Run("off", func(b *testing.B) {
		m, err := core.New(core.DefaultConfig(nVMs, nHosts, 7))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Decide(snap)
			m.Observe(&fb)
		}
	})
	b.Run("on-default-cadence", func(b *testing.B) {
		m, err := core.New(core.DefaultConfig(nVMs, nHosts, 7))
		if err != nil {
			b.Fatal(err)
		}
		tr := health.NewTracker(m, false, health.Config{Seed: 7})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Decide(snap)
			m.Observe(&fb)
			tr.AfterDecide()
		}
	})
}

// TestAfterDecideStaysCheapOffProbe pins what the health layer keeps per
// update: nothing. A tracked learner and its untracked twin (same seed,
// same snapshots, same costs) make the same decisions, so between probes
// the tracked cycle may allocate no more than the twin's. The world is the
// benchmark's 150 × 100 one, whose updates keep reaching new (a, b) pairs —
// the case where per-update state would have to grow.
func TestAfterDecideStaysCheapOffProbe(t *testing.T) {
	const nVMs, nHosts = 150, 100
	snap := testWorld(t, nVMs, nHosts)
	learner := func() *core.Megh {
		m, err := core.New(core.DefaultConfig(nVMs, nHosts, 7))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m, twin := learner(), learner()
	// The bool is ignored: no tracker shadows the learner's updates, even
	// when asked to. A cadence far beyond the measured window keeps every
	// measured call on the cheap path.
	tr := health.NewTracker(m, true, health.Config{ProbeEvery: 1 << 20, Seed: 7})
	fb := sim.Feedback{StepCost: 1.0}
	for i := 0; i < 8; i++ {
		m.Observe(&fb)
		m.Decide(snap)
		tr.AfterDecide()
		twin.Observe(&fb)
		twin.Decide(snap)
	}
	nnz := m.QTableNNZ()
	allocs := testing.AllocsPerRun(200, func() {
		m.Observe(&fb)
		m.Decide(snap)
		tr.AfterDecide()
	})
	base := testing.AllocsPerRun(200, func() {
		twin.Observe(&fb)
		twin.Decide(snap)
	})
	if m.QTableNNZ() != twin.QTableNNZ() {
		t.Fatalf("twin learners diverged: nnz %d vs %d", m.QTableNNZ(), twin.QTableNNZ())
	}
	if grown := m.QTableNNZ() - nnz; grown < 200 {
		t.Fatalf("Q-table grew by %d entries over 201 updates; the run must keep reaching new pairs", grown)
	}
	if allocs > base {
		t.Fatalf("off-probe tracked cycle allocates %.1f allocs/op, its untracked twin %.1f", allocs, base)
	}
}
