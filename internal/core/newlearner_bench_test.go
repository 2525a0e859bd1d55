package core

import "testing"

var benchLearner *Megh

// BenchmarkNewLearner prices building an empty learner on each side of the
// eager budget: the paper's 800-host × 1 052-VM world, whose tables are
// carved whole, and the 10 000 × 1 000 grid, whose tables appear on touch.
func BenchmarkNewLearner(b *testing.B) {
	for _, w := range []struct {
		name         string
		nVMs, nHosts int
	}{{"paper800", 1052, 800}, {"grid10k", 1000, 10000}} {
		b.Run(w.name, func(b *testing.B) {
			cfg := DefaultConfig(w.nVMs, w.nHosts, 7)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchLearner = m
			}
		})
	}
}
