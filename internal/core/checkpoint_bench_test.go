package core

import (
	"bytes"
	"io"
	"testing"

	"megh/internal/sim"
)

// checkpointLearner is BenchmarkCheckpoint's learner: 150 VMs × 100 hosts
// warmed by a fixed 4 000 decide/feedback cycles of a fixed snapshot. The
// update count fixes the Q-table, so its image is the same in every run.
func checkpointLearner(tb testing.TB) *Megh {
	const nVMs, nHosts, warm = 150, 100, 4000
	snap := tinySnapshot(tb, nVMs, nHosts)
	m, err := New(DefaultConfig(nVMs, nHosts, 7))
	if err != nil {
		tb.Fatal(err)
	}
	fb := sim.Feedback{StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1}
	for i := 0; i < warm; i++ {
		m.Decide(snap)
		m.Observe(&fb)
	}
	return m
}

// BenchmarkCheckpoint prices the three things done with a learner image —
// stream it out (what a checkpoint writes into its temp file), verify
// it where it lies (what a replica PUT does with the body), restore it — on
// checkpointLearner's learner (NNZ is reported), so ns/op and B/op are
// comparable across revisions. load-grid10k restores the other kind of
// image: a day-old learner of the 10 000-host × 1 000-VM grid, a few
// hundred entries in a world of 10⁷ indices, where what restoring costs is
// the tables it builds, not the entries it reads.
func BenchmarkCheckpoint(b *testing.B) {
	m := checkpointLearner(b)
	img := imageOf(b, m)
	report := func(b *testing.B) {
		b.ReportMetric(float64(m.QTableNNZ()), "nnz")
		b.ReportMetric(float64(len(img)), "image-bytes")
	}

	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.WriteImage(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := VerifyImage(img); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadState(bytes.NewReader(img)); err != nil {
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
