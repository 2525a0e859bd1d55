package experiments

import (
	"testing"

	"megh/internal/sim"
)

// BenchmarkBuild is Setup.Build at the three world shapes the repository
// benchmark builds: the paper's 800 × 1 052 week (sim-local), the 100 × 150
// grid at small-wire's default 8 640 steps, and grid10k-wire's
// 10 000 × 1 000 at 288 steps. Trace synthesis is most of each.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name              string
		hosts, vms, steps int
	}{
		{"paper800", 800, 1052, 2016},
		{"small-wire", 100, 150, 8640},
		{"grid10k", 10000, 1000, 288},
	} {
		b.Run(bc.name, func(b *testing.B) {
			setup := Setup{
				Dataset: PlanetLab, Hosts: bc.hosts, VMs: bc.vms, Steps: bc.steps,
				Seed: 1, Placement: sim.PlacementRandom,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := setup.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
