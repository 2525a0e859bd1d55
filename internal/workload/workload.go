// Package workload provides the CPU-utilization traces that drive the
// simulator. The paper evaluates on PlanetLab (CoMoN) and Google Cluster
// traces; since the original files are external data, this package supplies
// synthetic generators statistically matched to the trace properties the
// paper publishes in §6.2, and a writer for the CloudSim PlanetLab
// trace-file format (cmd/tracegen).
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
)

// Trace is a fixed-length sequence of CPU-utilization samples in [0,1],
// one per simulator step (τ = 5 minutes in all paper experiments). The
// sample is the fraction of the VM's *requested* MIPS that the workload
// demands at that step.
type Trace []float64

// At returns the utilization at step t. Steps beyond the end of the trace
// wrap around, matching CloudSim's behaviour of replaying traces that are
// shorter than the simulation; an empty trace reads as always idle.
func (tr Trace) At(t int) float64 {
	if len(tr) == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	return tr[t%len(tr)]
}

// Len returns the number of samples in the trace.
func (tr Trace) Len() int { return len(tr) }

// Mean returns the average utilization of the trace (0 for an empty trace).
func (tr Trace) Mean() float64 {
	if len(tr) == 0 {
		return 0
	}
	var s float64
	for _, u := range tr {
		s += u
	}
	return s / float64(len(tr))
}

// Clamp01 bounds a sample into [0,1].
func Clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// StepsPerDay is the number of τ = 5 min samples in one day.
const StepsPerDay = 24 * 60 / 5 // 288

// SevenDays is the PlanetLab experiment horizon (7 days of 5-minute steps).
const SevenDays = 7 * StepsPerDay // 2016

// ThreeDays is the MadVM-comparison horizon (3 days of 5-minute steps).
const ThreeDays = 3 * StepsPerDay // 864

// WriteTrace emits the trace in CloudSim PlanetLab format (one integer
// percentage per line, rounded to the nearest percent).
func WriteTrace(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	for _, u := range tr {
		pct := int(Clamp01(u)*100 + 0.5)
		if _, err := fmt.Fprintln(bw, pct); err != nil {
			return fmt.Errorf("workload: writing trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("workload: flushing trace: %w", err)
	}
	return nil
}

// newTraces carves n zeroed traces of steps samples out of one array, each
// with cap == len. One array instead of n keeps a reader that takes one
// sample per trace walking memory in order: as separate allocations, week-
// long traces land 16 KiB apart and evict each other from the same cache sets.
func newTraces(n, steps int) []Trace {
	all := make([]float64, n*steps)
	traces := make([]Trace, n)
	for v := range traces {
		traces[v] = all[v*steps : (v+1)*steps : (v+1)*steps]
	}
	return traces
}

// perVM calls gen(v, r) for each VM v < n with r reseeded to the v-th Int63
// of a master stream on seed. Contiguous blocks of VMs run on min(GOMAXPROCS,
// n) goroutines, so what gen writes for VM v alone is the same at any count.
func perVM(seed int64, n int, gen func(v int, r *rand.Rand)) {
	master := rand.New(rand.NewSource(seed))
	seeds := make([]int64, n)
	for v := range seeds {
		seeds[v] = master.Int63()
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(0))
			for v := lo; v < hi; v++ {
				r.Seed(seeds[v])
				gen(v, r)
			}
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

// gaussClamped draws N(mean, std) clamped into [lo, hi].
func gaussClamped(r *rand.Rand, mean, std, lo, hi float64) float64 {
	v := mean + std*r.NormFloat64()
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
