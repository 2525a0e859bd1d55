package health_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"megh/internal/health"
	"megh/internal/sim"
)

// Every ProbeResult of a 200-decide run (25 probes, costs varying so θ and
// B keep moving) must stay bit-for-bit what it is: the probe draws one row
// per sample from the tracker's own stream, in a fixed order, and reads θ
// and B·z without touching them.
func TestProbeResultGolden(t *testing.T) {
	m, snap := newLearner(t, 7)
	tr := health.NewTracker(m, false, health.Config{ProbeEvery: 8, Seed: 7})
	h := sha256.New()
	var maxTheta float64
	probes, nonZero := 0, 0
	for i := 0; i < 200; i++ {
		m.Observe(&sim.Feedback{StepCost: 0.5 + 0.25*float64(i%7)})
		m.Decide(snap)
		tr.AfterDecide()
		if p := tr.Snapshot().Probe; p != nil && p.AtDecide == int64(i+1) {
			var buf [24]byte
			binary.LittleEndian.PutUint64(buf[0:], uint64(p.AtDecide))
			binary.LittleEndian.PutUint64(buf[8:], uint64(p.Rows))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.ThetaResidualMax))
			h.Write(buf[:])
			if p.Rows != 4 {
				t.Fatalf("probe at decide %d sampled %d rows, want 4", p.AtDecide, p.Rows)
			}
			probes++
			if p.ThetaResidualMax != 0 {
				nonZero++
			}
			maxTheta = max(maxTheta, p.ThetaResidualMax)
		}
	}
	const (
		wantProbes = 25
		wantDigest = "593a20cb885ebcff5e1b42b727d22d2048db5d6bce6d73d3f5a7c79145ffafcc"
		wantTheta  = 0x1.48e88p-35
	)
	if probes != wantProbes || nonZero == 0 {
		t.Fatalf("%d probes ran, %d with a non-zero theta residual; want %d and some", probes, nonZero, wantProbes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Fatalf("probe results digest %s, golden %s", got, wantDigest)
	}
	if maxTheta != wantTheta {
		t.Fatalf("largest theta residual %x, golden %x", maxTheta, wantTheta)
	}
}
