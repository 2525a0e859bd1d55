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

// runProbe samples sampleRows random rows and records the largest θ = B·z
// residual |θ[i] − (B·z)[i]| among them. θ and z are both persisted state,
// so the check is valid on any learner, including one restored mid-stream.
// Cost is O(rows · nnz_row) — a few sampled sparse dot products per
// cadence, independent of d².
func (t *Tracker) runProbe() {
	rows := min(sampleRows, t.dim)
	p := &ProbeResult{AtDecide: t.decides, Rows: rows}
	for r := 0; r < rows; r++ {
		i := t.nextRow()
		if d := math.Abs(t.m.Theta(i) - t.m.DebugBZRow(i)); d > p.ThetaResidualMax || isNaN(d) {
			p.ThetaResidualMax = maxNaN(p.ThetaResidualMax, d)
		}
	}
	t.probe = p
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
	exceeds := func(v, thr float64) bool { return isNaN(v) || v >= thr }
	probeTheta := 0.0
	haveProbe := t.probe != nil
	if haveProbe {
		probeTheta = t.probe.ThetaResidualMax
	}
	fail := func(v Verdict, reason string) {
		t.verdict, t.reason = v, reason
		t.publish()
	}
	switch {
	case t.nonFinite > 0:
		fail(Diverging,
			"non-finite values in LSPI updates (count "+strconv.FormatInt(t.nonFinite, 10)+")")
	case haveProbe && exceeds(probeTheta, thetaDiverging):
		fail(Diverging,
			"theta probe |theta-B*z| "+fg(probeTheta)+" >= "+fg(thetaDiverging))
	case t.drift.init && exceeds(t.drift.v, driftDiverging):
		fail(Diverging,
			"theta drift EWMA "+fg(t.drift.v)+" >= "+fg(driftDiverging))
	case t.resid.init && exceeds(t.resid.v, residualDiverging):
		fail(Diverging,
			"bellman residual EWMA "+fg(t.resid.v)+" >= "+fg(residualDiverging))
	case haveProbe && exceeds(probeTheta, thetaDegraded):
		fail(Degraded,
			"theta probe |theta-B*z| "+fg(probeTheta)+" >= "+fg(thetaDegraded))
	case t.drift.init && exceeds(t.drift.v, driftDegraded):
		fail(Degraded,
			"theta drift EWMA "+fg(t.drift.v)+" >= "+fg(driftDegraded))
	case t.resid.init && exceeds(t.resid.v, residualDegraded):
		fail(Degraded,
			"bellman residual EWMA "+fg(t.resid.v)+" >= "+fg(residualDegraded))
	case t.nnzRate.init && exceeds(t.nnzRate.v, t.nnzDegraded):
		fail(Degraded,
			"nnz growth "+fg(t.nnzRate.v)+" per decide >= "+fg(t.nnzDegraded))
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
}
