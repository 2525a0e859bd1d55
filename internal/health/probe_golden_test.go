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

// The inverse probe accumulates row i of B·T − I in a scratch that holds
// only the columns its terms reach. The golden below was recorded with the
// d-long array that scratch replaced: every ProbeResult of a 200-decide run
// (25 probes, 6 rows each, costs varying so θ and B keep moving) must stay
// bit-for-bit what it was.
func TestProbeResultGolden(t *testing.T) {
	m, snap := newLearner(t, 7)
	tr := health.NewTracker(m, true, health.Config{ProbeEvery: 8, SampleRows: 6, Seed: 7})
	h := sha256.New()
	var last health.ProbeResult
	probes, nonZero := 0, 0
	for i := 0; i < 200; i++ {
		m.Observe(&sim.Feedback{StepCost: 0.5 + 0.25*float64(i%7)})
		m.Decide(snap)
		tr.AfterDecide()
		if p := tr.Snapshot().Probe; p != nil && p.AtDecide == int64(i+1) {
			var buf [32]byte
			binary.LittleEndian.PutUint64(buf[0:], uint64(p.AtDecide))
			binary.LittleEndian.PutUint64(buf[8:], uint64(p.Rows))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.ThetaResidualMax))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(p.InverseResidualMax))
			h.Write(buf[:])
			last = *p
			probes++
			if p.InverseResidualMax != 0 {
				nonZero++
			}
		}
	}
	const (
		wantProbes  = 25
		wantDigest  = "3123d7c4feb4109f9483d9326cc1ea0b590f016f92e3240ab39a8efa7f4802fc"
		wantInverse = 0x1.9056p-36
		wantTheta   = 0x1.beap-40
	)
	if probes != wantProbes || nonZero == 0 {
		t.Fatalf("%d probes ran, %d with a non-zero inverse residual; want %d and some", probes, nonZero, wantProbes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Fatalf("probe results digest %s, golden %s", got, wantDigest)
	}
	if !last.InverseAvailable || last.InverseResidualMax != wantInverse || last.ThetaResidualMax != wantTheta {
		t.Fatalf("last probe %+v, golden inverse %x theta %x", last, wantInverse, wantTheta)
	}
}
