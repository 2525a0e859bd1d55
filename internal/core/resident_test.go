//go:build !race

// The race detector's shadow memory and its instrumented allocations are no
// part of what the gauge models, so the heap is compared with it only
// without the detector.

package core

import (
	"runtime"
	"testing"
)

// megh_qtable_resident_bytes is what the Q-table holds: on the paper's
// 800-host × 1 052-VM world, after a few thousand updates, the gauge agrees
// with the heap the learner took to within a tenth — and so does what the
// updates added to it, which is what the gauge's records and entries model.
func TestQTableResidentBytesIsTheHeap(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	m, err := New(DefaultConfig(1052, 800, 7))
	if err != nil {
		t.Fatal(err)
	}
	fresh, freshGauge := heap(), m.QTableResidentBytes()

	// Transitions among 3 000 seeded actions, so indices recur and rows
	// and columns fill in as a learner's do.
	x := uint64(1)
	actions := make([]int, 3000)
	for i := range actions {
		x = x*6364136223846793005 + 1442695040888963407
		actions[i] = int(x>>33) % m.d
	}
	prev := actions[0]
	for i := 0; i < 6000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := actions[int(x>>33)%len(actions)]
		m.update(prev, a, 0.25+float64(i%5))
		prev = a
	}
	grown, gauge := heap(), m.QTableResidentBytes()
	runtime.KeepAlive(m)

	within := func(what string, gauge int, heap uint64) {
		t.Helper()
		if r := float64(gauge) / float64(heap); r < 0.9 || r > 1.1 {
			t.Errorf("%s: the gauge reads %d bytes, the heap grew by %d (ratio %.3f)", what, gauge, heap, r)
		}
	}
	within("learner", gauge, grown-base)
	within("updates", gauge-freshGauge, grown-fresh)
	t.Logf("NNZ %d; gauge %d of %d heap bytes; updates %d of %d", m.QTableNNZ(), gauge, grown-base, gauge-freshGauge, grown-fresh)
}
