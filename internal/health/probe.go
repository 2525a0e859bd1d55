package health

import (
	"math"
	"strconv"
)

// splitmix64 is the tracker's private sampling stream: probe rows must be
// deterministic for a given decision sequence and must never consume the
// learner's exploration RNG (probing would otherwise change decisions).
func (t *Tracker) nextRow() int {
	t.rngState += 0x9e3779b97f4a7c15
	z := t.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(t.dim))
}

// runProbe samples SampleRows random rows and computes
//
//   - the θ = B·z residual |θ[i] − (B·z)[i]| — valid on any learner,
//   - when the shadow is armed, the inverse-drift residual
//     max_j |(B·T)[i,j] − I[i,j]| with T = δ·I + D reconstructed from the
//     sparse shadow D: (B·T)[i,j] = δ·B[i,j] + Σ_k B[i,k]·D[k,j].
//
// Cost is O(rows · nnz_row · nnz_shadow_row) — a few sampled sparse dot
// products per cadence, independent of d², which is what makes the
// invariant package's dense oracle production-affordable.
func (t *Tracker) runProbe() {
	rows := t.cfg.SampleRows
	if rows > t.dim {
		rows = t.dim
	}
	p := &ProbeResult{
		AtDecide:         t.decides,
		Rows:             rows,
		InverseAvailable: t.shadowArmed,
	}
	delta := float64(t.dim) // B₀ = (1/δ)·I with δ = d, so T₀ = δ·I
	if t.shadowArmed && t.slot == nil {
		t.slot = make(map[int]int)
	}
	for r := 0; r < rows; r++ {
		i := t.nextRow()
		if d := math.Abs(t.m.Theta(i) - t.m.DebugBZRow(i)); d > p.ThetaResidualMax || isNaN(d) {
			p.ThetaResidualMax = maxNaN(p.ThetaResidualMax, d)
		}
		if !t.shadowArmed {
			continue
		}
		// Row i of B·T − I, accumulated per column in the order the terms
		// arrive; only the columns some term reaches are held.
		row := t.m.DebugBRow(i)
		clear(t.slot)
		t.acc = t.acc[:0]
		row.Range(func(k int, bik float64) bool {
			// δ·B[i,k] term of B·T.
			*t.cell(k) += delta * bik
			// B[i,k] · D[k,·] terms.
			for j, dkj := range t.shadow[k] {
				*t.cell(j) += bik * dkj
			}
			return true
		})
		*t.cell(i) -= 1
		for _, x := range t.acc {
			if v := math.Abs(x); v > p.InverseResidualMax || isNaN(v) {
				p.InverseResidualMax = maxNaN(p.InverseResidualMax, v)
			}
		}
	}
	t.probe = p
}

// cell returns the probe accumulator of column j, starting it at zero.
func (t *Tracker) cell(j int) *float64 {
	p, ok := t.slot[j]
	if !ok {
		p = len(t.acc)
		t.slot[j] = p
		t.acc = append(t.acc, 0)
	}
	return &t.acc[p]
}

func isNaN(v float64) bool { return v != v }

// maxNaN is max that treats NaN as the largest value: a NaN residual is
// the worst possible news and must not be masked by a later finite sample.
func maxNaN(a, b float64) float64 {
	if isNaN(a) {
		return a
	}
	if isNaN(b) || b > a {
		return b
	}
	return a
}

// fg formats a float for reason strings exactly as the JSON encoder does,
// keeping snapshots and reasons byte-stable across runs.
func fg(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// evaluate rescores the verdict from the current telemetry, most severe
// signal first, and records a reason naming the signal, its value, and the
// threshold it crossed. Reason strings are built only in the branch that
// fires: evaluate runs on every decide, so the healthy path must not
// allocate.
func (t *Tracker) evaluate() {
	exceeds := func(v, thr float64) bool {
		return thr >= 0 && (isNaN(v) || v >= thr)
	}
	probeTheta, probeInv := 0.0, 0.0
	haveProbe := t.probe != nil
	if haveProbe {
		probeTheta = t.probe.ThetaResidualMax
		probeInv = t.probe.InverseResidualMax
	}
	fail := func(v Verdict, reason string) {
		t.verdict, t.reason = v, reason
		t.publish()
	}
	switch {
	case t.nonFinite > 0:
		fail(Diverging,
			"non-finite values in LSPI updates (count "+strconv.FormatInt(t.nonFinite, 10)+")")
	case haveProbe && t.probe.InverseAvailable && exceeds(probeInv, t.thr.InverseDiverging):
		fail(Diverging,
			"inverse probe |B*T-I| "+fg(probeInv)+" >= "+fg(t.thr.InverseDiverging))
	case haveProbe && exceeds(probeTheta, t.thr.ThetaDiverging):
		fail(Diverging,
			"theta probe |theta-B*z| "+fg(probeTheta)+" >= "+fg(t.thr.ThetaDiverging))
	case t.drift.init && exceeds(t.drift.v, t.thr.DriftDiverging):
		fail(Diverging,
			"theta drift EWMA "+fg(t.drift.v)+" >= "+fg(t.thr.DriftDiverging))
	case t.resid.init && exceeds(t.resid.v, t.thr.ResidualDiverging):
		fail(Diverging,
			"bellman residual EWMA "+fg(t.resid.v)+" >= "+fg(t.thr.ResidualDiverging))
	case haveProbe && t.probe.InverseAvailable && exceeds(probeInv, t.thr.InverseDegraded):
		fail(Degraded,
			"inverse probe |B*T-I| "+fg(probeInv)+" >= "+fg(t.thr.InverseDegraded))
	case haveProbe && exceeds(probeTheta, t.thr.ThetaDegraded):
		fail(Degraded,
			"theta probe |theta-B*z| "+fg(probeTheta)+" >= "+fg(t.thr.ThetaDegraded))
	case t.drift.init && exceeds(t.drift.v, t.thr.DriftDegraded):
		fail(Degraded,
			"theta drift EWMA "+fg(t.drift.v)+" >= "+fg(t.thr.DriftDegraded))
	case t.resid.init && exceeds(t.resid.v, t.thr.ResidualDegraded):
		fail(Degraded,
			"bellman residual EWMA "+fg(t.resid.v)+" >= "+fg(t.thr.ResidualDegraded))
	case t.nnzRate.init && exceeds(t.nnzRate.v, t.thr.NNZGrowthDegraded):
		fail(Degraded,
			"nnz growth "+fg(t.nnzRate.v)+" per decide >= "+fg(t.thr.NNZGrowthDegraded))
	default:
		t.verdict, t.reason = Healthy, ""
		t.publish()
	}
}

// publish refreshes the optional obs gauges.
func (t *Tracker) publish() {
	g := t.gauges
	if g == nil {
		return
	}
	g.verdict.Set(float64(t.verdict))
	g.drift.Set(t.drift.v)
	g.residual.Set(t.resid.v)
	if t.probe != nil {
		g.inverse.Set(t.probe.InverseResidualMax)
	}
}
