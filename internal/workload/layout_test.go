package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"unsafe"
)

// TestGeneratedTracesShareOneBackingArray pins the generators' memory
// layout: the n traces are consecutive steps-long stripes of one array, each
// with cap == len, so a reader that takes one sample per trace walks memory
// in order instead of hopping between allocator size classes, and appending
// to one trace can never write into the next. The values themselves are
// pinned by digest, recorded when each trace still had its own allocation.
func TestGeneratedTracesShareOneBackingArray(t *testing.T) {
	const n, steps = 5, 37
	pl := DefaultPlanetLabConfig(4)
	pl.Steps = steps
	gg := DefaultGoogleConfig(4)
	gg.Steps = steps
	di := DefaultDiurnalConfig(4)
	di.Steps = steps
	di.BurstProb = 0.05
	phases := []PhaseSpec{{Name: "fading", From: 0, LoadScale: 0.5}, {Name: "expansion", From: 20, LoadScale: 1.7}}
	cases := []struct {
		name   string
		gen    func() ([]Trace, error)
		digest string
	}{
		{"planetlab", func() ([]Trace, error) { return GeneratePlanetLab(pl, n) }, "d64b308b0bdbc71496a86f0687d12661312685dce4677bc16e99d08548d87bd3"},
		{"google", func() ([]Trace, error) { tr, _, err := GenerateGoogle(gg, n); return tr, err }, "1bd7e7ebbccbe0d7c20686b9b62e3ae2ef3c5a444e849db9494d86873011e501"},
		{"diurnal", func() ([]Trace, error) { return GenerateDiurnal(di, n) }, "b8bc7b5223b4bb24eed023efd385e13268f5b199682223635a2e87454601a259"},
		{"phased", func() ([]Trace, error) { return GeneratePhased(di, phases, n) }, "10463db966297946061d89c609a17368790466985303c2130d7a6ec6d18aac89"},
	}
	for _, c := range cases {
		traces, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(traces) != n {
			t.Fatalf("%s: %d traces, want %d", c.name, len(traces), n)
		}
		h := sha256.New()
		var b [8]byte
		base := unsafe.Pointer(&traces[0][0])
		for j, tr := range traces {
			if len(tr) != steps || cap(tr) != len(tr) {
				t.Errorf("%s: trace %d has len %d cap %d, want both %d", c.name, j, len(tr), cap(tr), steps)
				continue
			}
			if want := unsafe.Add(base, j*steps*8); unsafe.Pointer(&tr[0]) != want {
				t.Errorf("%s: trace %d does not start %d samples after trace 0", c.name, j, j*steps)
			}
			for _, u := range tr {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(u))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s: values digest %s, want %s", c.name, got, c.digest)
		}
	}
}
