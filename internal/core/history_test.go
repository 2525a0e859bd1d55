//go:build !race

// A wall-clock ratio: not built under the race detector, whose
// instrumentation slows the two sides unequally.

package core

import (
	"math/rand"
	"testing"
	"time"
)

// An update costs what the world is, not what the run has been (§5.2,
// Theorem 2): a paper-size learner whose z already holds 300 000 distinct
// entries — months of actions — applies 2 000 further transitions in about
// the time a fresh one does. With z one sorted slice every new action
// shifted half of that history (≈100× here, and the weekly decide-time ramp
// and week-15 knee of bench/README.md Finding 1 on sim-local).
func TestLateUpdatesCostWhatEarlyOnesDo(t *testing.T) {
	if testing.Short() {
		t.Skip("times two 800 × 1 052 learners")
	}
	const nVMs, nHosts = 1052, 800
	const aged, updates, rounds = 300000, 2000, 3
	build := func() *Megh {
		m, err := New(DefaultConfig(nVMs, nHosts, 1))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fresh, old := build(), build()
	for k := 0; k < aged; k++ {
		old.b.AddZ(k*old.d/aged, 1) // distinct: d/aged > 2
	}

	// The same transitions on both sides, in alternating rounds; the best
	// round of each side is its time.
	apply := func(m *Megh, seed int64) time.Duration {
		r := rand.New(rand.NewSource(seed))
		start := time.Now()
		for k := 0; k < updates; k++ {
			m.update(r.Intn(m.d), r.Intn(m.d), 1+r.Float64())
		}
		return time.Since(start)
	}
	best := [2]time.Duration{1 << 62, 1 << 62}
	for round := int64(0); round < rounds; round++ {
		for side, m := range [2]*Megh{fresh, old} {
			if d := apply(m, round); d < best[side] {
				best[side] = d
			}
		}
	}
	if best[1] > 5*best[0] {
		t.Fatalf("%d updates took %v on a learner holding %d z entries, %v on a fresh one: history is in the hot path",
			updates, best[1], aged, best[0])
	}
	t.Logf("%d updates: fresh %v, aged (%d z entries) %v", updates, best[0], aged, best[1])
}
