package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// digestTraces is a SHA-256 over every sample's float64 bits, trace by
// trace, then over every task's fields in order.
func digestTraces(traces []Trace, tasks []GoogleTask) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(len(traces)))
	for _, tr := range traces {
		put(uint64(len(tr)))
		for _, u := range tr {
			put(math.Float64bits(u))
		}
	}
	put(uint64(len(tasks)))
	for _, tk := range tasks {
		put(uint64(tk.VM))
		put(uint64(tk.StartStep))
		put(math.Float64bits(tk.DurationSec))
		put(math.Float64bits(tk.Utilization))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsIndependentOfParallelism pins every synthetic generator's
// output, bit for bit, to digests of the serial generators, at several
// GOMAXPROCS settings. The VM counts leave uneven blocks for any worker
// count, and one world has fewer VMs than workers.
func TestGeneratorsIndependentOfParallelism(t *testing.T) {
	worlds := []struct {
		name string
		gen  func() ([]Trace, []GoogleTask, error)
		want string
	}{
		{"planetlab", func() ([]Trace, []GoogleTask, error) {
			cfg := DefaultPlanetLabConfig(11)
			cfg.Steps = 500
			tr, err := GeneratePlanetLab(cfg, 37)
			return tr, nil, err
		}, "c8b878ef1c6add09a8f902bff5f10c53c779862bb887c905bb2aa3d2886137a8"},
		{"planetlab-tiny", func() ([]Trace, []GoogleTask, error) {
			cfg := DefaultPlanetLabConfig(3)
			cfg.Steps = 40
			tr, err := GeneratePlanetLab(cfg, 3)
			return tr, nil, err
		}, "381e319257f9e7af36e96200d61d8f6caf2033be065fc47223a37dec79922f0a"},
		{"google", func() ([]Trace, []GoogleTask, error) {
			cfg := DefaultGoogleConfig(12)
			cfg.Steps = 700
			return GenerateGoogle(cfg, 41)
		}, "a353632bf648e2d3c076ff28014fe48e3e883ebc98f5699616b6322a3480f34e"},
		{"diurnal", func() ([]Trace, []GoogleTask, error) {
			cfg := DefaultDiurnalConfig(13)
			cfg.Steps = 600
			cfg.BurstProb = 0.02
			tr, err := GenerateDiurnal(cfg, 29)
			return tr, nil, err
		}, "597e96a90a950afa43cbf72ad72c45b8a4d04cd3b1fb078bc520a579f9ac9050"},
		{"phased", func() ([]Trace, []GoogleTask, error) {
			cfg := DefaultDiurnalConfig(14)
			cfg.Steps = 450
			phases := []PhaseSpec{
				{Name: "steady", From: 0, LoadScale: 1},
				{Name: "fading", From: 100, LoadScale: 0.35},
				{Name: "expansion", From: 300, LoadScale: 1.6},
			}
			tr, err := GeneratePhased(cfg, phases, 23)
			return tr, nil, err
		}, "75e1815d5199b7d3859adae8b2f0c7fc9c1a5c4f102aee47557fdbc22c1ccea7"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, w := range worlds {
			t.Run(fmt.Sprintf("%s/procs=%d", w.name, procs), func(t *testing.T) {
				traces, tasks, err := w.gen()
				if err != nil {
					t.Fatal(err)
				}
				if got := digestTraces(traces, tasks); got != w.want {
					t.Errorf("digest %s, want %s", got, w.want)
				}
			})
		}
	}
}
