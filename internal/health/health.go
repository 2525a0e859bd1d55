// Package health is the learning-health observability layer: cheap
// always-on telemetry and a sampled consistency probe, rolled up into a
// per-session verdict an operator (or the fleet rollup in internal/server)
// can act on. The dense ‖B·T − I‖∞ oracle lives in internal/invariant's
// tests.
//
// A Tracker rides alongside one core.Megh learner. After every decide (or
// batch of decides) the owner calls AfterDecide, which diffs the learner's
// cumulative core.LearnStats to advance streaming telemetry:
//
//   - θ drift rate — EWMA of ‖Δθ‖ per decide,
//   - Bellman/TD residual EWMA,
//   - nnz growth rate per decide,
//   - the exploration-temperature timeline,
//
// and, on a configurable cadence, runs a sampled θ = B·z spot check on a
// few random rows. θ and z are both persisted state, so the tracker works
// the same on every learner, fresh or restored from a checkpoint. Every
// signal is scored against fixed thresholds into a
// Healthy/Degraded/Diverging verdict with a human-readable reason.
//
// Everything is deterministic for a fixed decision sequence: probe rows
// come from the tracker's own splitmix64 stream (never the learner's RNG),
// no wall clock is read, and Snapshot marshals to byte-identical JSON for
// same-seed runs.
package health

import (
	"math"
	"strconv"

	"megh/internal/core"
	"megh/internal/obs"
)

// Verdict is the tracker's rolled-up assessment of a learner.
type Verdict int

// Verdict levels, ordered by severity.
const (
	Healthy Verdict = iota
	Degraded
	Diverging
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Diverging:
		return "diverging"
	default:
		return "verdict(" + strconv.Itoa(int(v)) + ")"
	}
}

// Config configures one Tracker.
type Config struct {
	// ProbeEvery is the number of decides between sampled probes; 0 means
	// DefProbeEvery, negative disables probing (the streaming EWMAs still
	// run).
	ProbeEvery int
	// Seed seeds the tracker's private row-sampling stream. The tracker
	// never touches the learner's RNG, so probing cannot change decisions.
	Seed int64
}

const (
	// sampleRows is how many rows each probe samples.
	sampleRows = 4
	// alpha is the EWMA smoothing factor.
	alpha = 0.2
	// timelineCap bounds the temperature timeline ring.
	timelineCap = 64
)

// Scoring thresholds. Cost-scale bounds (drift, residual) are deliberately
// loose — they catch runaway feedback, not normal learning; the θ bounds
// sit well above float noise but far below anything a corrupted state
// produces. The nnz-growth bound depends on the learner's dimension and is
// set by NewTracker.
const (
	// driftDegraded / driftDiverging bound the EWMA of ‖Δθ‖ per decide.
	driftDegraded  = 1e4
	driftDiverging = 1e8
	// residualDegraded / residualDiverging bound the Bellman residual EWMA.
	residualDegraded  = 1e4
	residualDiverging = 1e8
	// thetaDegraded / thetaDiverging bound the sampled max |θ[i] − (B·z)[i]|.
	thetaDegraded  = 1e-5
	thetaDiverging = 1e-2
)

// DefProbeEvery is the default probe cadence in decides.
const DefProbeEvery = 256

// TempSample is one point of the exploration-temperature timeline.
type TempSample struct {
	Decide      int64   `json:"decide"`
	Temperature float64 `json:"temperature"`
}

// ProbeResult is the outcome of one sampled consistency probe.
type ProbeResult struct {
	// AtDecide is the tracker-relative decide count the probe ran at.
	AtDecide int64 `json:"at_decide"`
	// Rows is how many rows were sampled.
	Rows int `json:"rows_sampled"`
	// ThetaResidualMax is the sampled max |θ[i] − (B·z)[i]|.
	ThetaResidualMax float64 `json:"theta_residual_max"`
}

// Snapshot is a point-in-time copy of the tracker's telemetry, shaped for
// stable JSON: field order is fixed and all values derive from the
// decision sequence, so same-seed runs marshal byte-identically.
type Snapshot struct {
	Decides      int64        `json:"decides"`
	Verdict      string       `json:"verdict"`
	Reason       string       `json:"reason,omitempty"`
	Evictions    int64        `json:"evictions"`
	ThetaDrift   float64      `json:"theta_drift_ewma"`
	Residual     float64      `json:"bellman_residual_ewma"`
	Temperature  float64      `json:"temperature"`
	QTableNNZ    int          `json:"qtable_nnz"`
	NNZGrowth    float64      `json:"nnz_growth_per_decide_ewma"`
	Applied      int64        `json:"updates_applied_total"`
	Skipped      int64        `json:"updates_skipped_total"`
	NonFinite    int64        `json:"non_finite_total"`
	Probe        *ProbeResult `json:"probe,omitempty"`
	TempTimeline []TempSample `json:"temperature_timeline,omitempty"`
}

// ewma is an exponentially weighted moving average seeded by its first
// sample.
type ewma struct {
	v    float64
	init bool
}

func (e *ewma) add(x float64) {
	if !e.init {
		e.v, e.init = x, true
		return
	}
	e.v += alpha * (x - e.v)
}

// Tracker maintains learning-health telemetry for one learner. It is not
// safe for concurrent use; the owner serialises AfterDecide, Snapshot and
// the eviction lifecycle exactly as it serialises learner access (the
// server holds the session lock).
type Tracker struct {
	probeEvery int
	m          *core.Megh
	dim        int
	rngState   uint64
	// nnzDegraded bounds the EWMA of Q-table nnz growth per decide.
	nnzDegraded float64

	last      core.LearnStats
	decides   int64
	applied   int64
	skipped   int64
	nonFinite int64
	evictions int64

	drift   ewma
	resid   ewma
	nnzRate ewma
	lastNNZ int
	temp    float64
	nnz     int

	sinceProbe int64
	probe      *ProbeResult
	timeline   []TempSample

	verdict Verdict
	reason  string

	gauges *gauges
}

// gauges caches the tracker's optional obs instruments.
type gauges struct {
	verdict  *obs.Gauge
	drift    *obs.Gauge
	residual *obs.Gauge
}

// NewTracker attaches learning-health tracking to m, fresh or restored
// from a checkpoint alike. The bool parameter is ignored; it remains only
// for callers outside this module.
func NewTracker(m *core.Megh, _ bool, cfg Config) *Tracker {
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = DefProbeEvery
	}
	t := &Tracker{
		probeEvery: cfg.ProbeEvery,
		m:          m,
		dim:        m.Dim(),
		rngState:   uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x1234567,
		// The paper's Figure 7 expects near-linear growth; a sustained rate
		// of dim/20 new entries per decide means the Q-table is densifying.
		nnzDegraded: float64(m.Dim()) / 20,
		lastNNZ:     m.QTableNNZ(),
		temp:        m.Temperature(),
		nnz:         m.QTableNNZ(),
	}
	m.EnableLearnStats()
	t.last = m.LearnStats()
	return t
}

// Detach is called when the learner is evicted (checkpointed and dropped):
// the tracker keeps every accumulated telemetry stream, drops the learner
// pointer, and counts the eviction. Snapshot keeps working from cached
// state — observing an evicted session never thaws it.
func (t *Tracker) Detach() {
	t.m = nil
	t.evictions++
}

// Reattach resumes tracking on a learner lazily restored from the
// checkpoint taken at Detach. Only the learner's cumulative LearnStats
// counters restart from zero, which Reattach rebases.
func (t *Tracker) Reattach(m *core.Megh) {
	t.m = m
	m.EnableLearnStats()
	t.last = m.LearnStats()
	t.lastNNZ = m.QTableNNZ()
}

// Instrument mirrors the tracker's headline telemetry into reg as gauges
// (refreshed on every AfterDecide): the verdict as 0/1/2 and the drift and
// residual EWMAs.
func (t *Tracker) Instrument(reg *obs.Registry) {
	if reg == nil {
		t.gauges = nil
		return
	}
	t.gauges = &gauges{
		verdict: reg.Gauge("megh_health_verdict",
			"Learning-health verdict: 0 healthy, 1 degraded, 2 diverging.", nil),
		drift: reg.Gauge("megh_health_theta_drift_ewma",
			"EWMA of per-decide theta drift magnitude.", nil),
		residual: reg.Gauge("megh_health_bellman_residual_ewma",
			"EWMA of the Bellman/TD residual per applied LSPI transition.", nil),
	}
}

// AfterDecide advances the telemetry after one or more completed decides
// (a batch counts once — the learner's cumulative stats make the deltas
// exact regardless). It must be called with the same serialisation as the
// learner itself. No-op when the learner is detached.
func (t *Tracker) AfterDecide() {
	if t.m == nil {
		return
	}
	st := t.m.LearnStats()
	dd := st.Decides - t.last.Decides
	if dd > 0 {
		driftSq := st.DriftSqSum - t.last.DriftSqSum
		if driftSq < 0 {
			driftSq = 0
		}
		t.drift.add(math.Sqrt(driftSq / float64(dd)))
		if rc := st.ResidualCount - t.last.ResidualCount; rc > 0 {
			t.resid.add((st.ResidualAbsSum - t.last.ResidualAbsSum) / float64(rc))
		}
		nnz := t.m.QTableNNZ()
		t.nnzRate.add(float64(nnz-t.lastNNZ) / float64(dd))
		t.lastNNZ = nnz
	}
	t.applied += st.Applied - t.last.Applied
	t.skipped += st.Skipped - t.last.Skipped
	t.nonFinite += st.NonFinite - t.last.NonFinite
	t.last = st
	t.decides += dd

	t.temp = t.m.Temperature()
	t.nnz = t.m.QTableNNZ()

	if t.probeEvery > 0 {
		t.sinceProbe += dd
		if t.sinceProbe >= int64(t.probeEvery) {
			t.sinceProbe = 0
			t.runProbe()
			t.timeline = append(t.timeline, TempSample{Decide: t.decides, Temperature: t.temp})
			if len(t.timeline) > timelineCap {
				t.timeline = t.timeline[len(t.timeline)-timelineCap:]
			}
		}
	}
	t.evaluate()
}

// Verdict returns the current verdict and its reason ("" when healthy).
func (t *Tracker) Verdict() (Verdict, string) { return t.verdict, t.reason }

// Decides returns the tracker-relative decide count (survives
// evict/restore cycles).
func (t *Tracker) Decides() int64 { return t.decides }

// Snapshot copies the current telemetry. Safe on a detached (evicted)
// tracker: every field is cached at the last AfterDecide.
func (t *Tracker) Snapshot() Snapshot {
	s := Snapshot{
		Decides:     t.decides,
		Verdict:     t.verdict.String(),
		Reason:      t.reason,
		Evictions:   t.evictions,
		ThetaDrift:  t.drift.v,
		Residual:    t.resid.v,
		Temperature: t.temp,
		QTableNNZ:   t.nnz,
		NNZGrowth:   t.nnzRate.v,
		Applied:     t.applied,
		Skipped:     t.skipped,
		NonFinite:   t.nonFinite,
	}
	if t.probe != nil {
		p := *t.probe
		s.Probe = &p
	}
	if len(t.timeline) > 0 {
		s.TempTimeline = append([]TempSample(nil), t.timeline...)
	}
	return s
}
