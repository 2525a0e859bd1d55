package core

import (
	"bytes"
	"testing"

	"megh/internal/sim"
)

// BenchmarkCheckpoint prices the three things done with a learner image —
// encode it, verify it without building, restore it — on a 150-VM ×
// 100-host learner warmed by a fixed 4 000 decide/feedback cycles of a
// fixed snapshot. The update count fixes the Q-table (NNZ is reported), so
// ns/op is comparable across revisions.
func BenchmarkCheckpoint(b *testing.B) {
	const nVMs, nHosts, warm = 150, 100, 4000
	snap := tinySnapshot(b, nVMs, nHosts)
	m, err := New(DefaultConfig(nVMs, nHosts, 7))
	if err != nil {
		b.Fatal(err)
	}
	fb := sim.Feedback{StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1}
	for i := 0; i < warm; i++ {
		m.Decide(snap)
		m.Observe(&fb)
	}
	var img bytes.Buffer
	if err := m.SaveState(&img); err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(m.QTableNNZ()), "nnz")
		b.ReportMetric(float64(img.Len()), "image-bytes")
	}

	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := m.SaveState(&buf); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := VerifyState(bytes.NewReader(img.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadState(bytes.NewReader(img.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}
