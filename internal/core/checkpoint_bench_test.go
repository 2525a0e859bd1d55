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
// ns/op is comparable across revisions. load-grid10k restores the other
// kind of image: a day-old learner of the 10 000-host × 1 000-VM grid, a few
// hundred entries in a world of 10⁷ indices, where what restoring costs is
// the tables it builds, not the entries it reads.
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
	b.Run("load-grid10k", func(b *testing.B) {
		grid, err := New(DefaultConfig(1000, 10000, 7))
		if err != nil {
			b.Fatal(err)
		}
		ageOneDay(grid)
		var img bytes.Buffer
		if err := grid.SaveState(&img); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LoadState(bytes.NewReader(img.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(grid.QTableNNZ()), "nnz")
		b.ReportMetric(float64(img.Len()), "image-bytes")
	})
}
