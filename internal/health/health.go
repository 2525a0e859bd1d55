// Package health is the learning-health observability layer: it turns the
// invariant package's test-only oracles into cheap always-on production
// probes and rolls them up into a per-session verdict an operator (or the
// fleet rollup in internal/server) can act on.
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
// and, on a configurable cadence, runs sampled consistency probes: a
// θ = B·z spot check on K random rows and — when the tracker has observed
// the learner since construction via the update hook — a sampled
// ‖B·T − I‖∞ inverse-drift probe against a sparse shadow of T. Every
// signal is scored against Thresholds into a Healthy/Degraded/Diverging
// verdict with a human-readable reason.
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

// Thresholds scores each telemetry stream. A zero-valued field falls back
// to the matching DefThresholds entry; setting a threshold negative
// disables that check.
type Thresholds struct {
	// DriftDegraded / DriftDiverging bound the EWMA of ‖Δθ‖ per decide.
	DriftDegraded  float64
	DriftDiverging float64
	// ResidualDegraded / ResidualDiverging bound the Bellman residual EWMA.
	ResidualDegraded  float64
	ResidualDiverging float64
	// InverseDegraded / InverseDiverging bound the sampled ‖B·T − I‖∞
	// probe (numerical-consistency scale, not cost scale).
	InverseDegraded  float64
	InverseDiverging float64
	// ThetaDegraded / ThetaDiverging bound the sampled max |θ[i] − (B·z)[i]|.
	ThetaDegraded  float64
	ThetaDiverging float64
	// NNZGrowthDegraded bounds the EWMA of Q-table nnz growth per decide.
	NNZGrowthDegraded float64
}

// DefThresholds returns the default scoring thresholds. Cost-scale bounds
// (drift, residual) are deliberately loose — they catch runaway feedback,
// not normal learning; the numerical bounds (θ, inverse) sit well above
// float noise but far below anything a corrupted state produces.
func DefThresholds() Thresholds {
	return Thresholds{
		DriftDegraded:     1e4,
		DriftDiverging:    1e8,
		ResidualDegraded:  1e4,
		ResidualDiverging: 1e8,
		InverseDegraded:   1e-5,
		InverseDiverging:  1e-2,
		ThetaDegraded:     1e-5,
		ThetaDiverging:    1e-2,
		NNZGrowthDegraded: 0, // resolved to dim/20 per decide at NewTracker
	}
}

// Config configures one Tracker.
type Config struct {
	// ProbeEvery is the number of decides between sampled probes; 0 means
	// DefProbeEvery, negative disables probing (the streaming EWMAs still
	// run).
	ProbeEvery int
	// SampleRows is how many rows each probe samples; 0 means 4.
	SampleRows int
	// Alpha is the EWMA smoothing factor in (0,1]; 0 means 0.2.
	Alpha float64
	// Thresholds scores the telemetry; zero-valued fields use defaults.
	Thresholds Thresholds
	// Seed seeds the tracker's private row-sampling stream. The tracker
	// never touches the learner's RNG, so probing cannot change decisions.
	Seed int64
	// TimelineCap bounds the temperature timeline ring; 0 means 64.
	TimelineCap int
}

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
	// ThetaResidualMax is the sampled max |θ[i] − (B·z)[i]| — valid on
	// every learner, including ones restored mid-stream from a checkpoint
	// (θ and z are both persisted state).
	ThetaResidualMax float64 `json:"theta_residual_max"`
	// InverseAvailable reports whether the ‖B·T − I‖∞ probe ran. It
	// requires the tracker to have shadowed every update since the
	// learner's construction; a tracker attached to a learner restored
	// from a checkpoint it did not witness reports false here (the θ = B·z
	// probe carries the corruption check instead).
	InverseAvailable bool `json:"inverse_available"`
	// InverseResidualMax is the sampled row-wise max of |B·T − I| when
	// available.
	InverseResidualMax float64 `json:"inverse_residual_max,omitempty"`
}

// Snapshot is a point-in-time copy of the tracker's telemetry, shaped for
// stable JSON: field order is fixed and all values derive from the
// decision sequence, so same-seed runs marshal byte-identically.
type Snapshot struct {
	Decides      int64        `json:"decides"`
	Verdict      string       `json:"verdict"`
	Reason       string       `json:"reason,omitempty"`
	Evictions    int64        `json:"evictions"`
	InverseArmed bool         `json:"inverse_probe_armed"`
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

func (e *ewma) add(alpha, x float64) {
	if !e.init {
		e.v, e.init = x, true
		return
	}
	e.v += alpha * (x - e.v)
}

// Tracker maintains learning-health telemetry for one learner. It is not
// safe for concurrent use; the owner serialises AfterDecide, Snapshot and
// the eviction lifecycle exactly as it serialises learner access (the
// server holds the session lock, the simulator is single-threaded).
type Tracker struct {
	cfg      Config
	thr      Thresholds
	m        *core.Megh
	dim      int
	rngState uint64

	// shadow, when armed, mirrors T − δ·I per row: every applied rank-1
	// update adds 1 to (a,a) and −γ to (a,b). Armed only when the
	// tracker has witnessed every update since construction (fresh
	// learners; survives byte-identical evict/restore cycles because B and
	// the shadow age together).
	shadowArmed bool
	shadow      map[int]map[int]float64
	// slot and acc are the inverse probe's scratch: one accumulator per
	// column the sampled row's terms reach, found through slot.
	slot map[int]int
	acc  []float64

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
	inverse  *obs.Gauge
}

// NewTracker attaches learning-health tracking to m. fresh must be true
// only when m was just constructed (core.New) and the tracker will observe
// every update from now on — that arms the sampled ‖B·T − I‖∞ probe via
// the learner's update hook. For a learner restored from a checkpoint the
// tracker did not witness, pass fresh=false: the inverse probe reports
// unavailable and the restore-safe θ = B·z probe carries the consistency
// check.
//
// NewTracker installs the learner's update hook when fresh and probing is
// enabled; it cannot share the hook with internal/invariant's probes
// (last SetUpdateHook wins).
func NewTracker(m *core.Megh, fresh bool, cfg Config) *Tracker {
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = DefProbeEvery
	}
	if cfg.SampleRows <= 0 {
		cfg.SampleRows = 4
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.2
	}
	if cfg.TimelineCap <= 0 {
		cfg.TimelineCap = 64
	}
	t := &Tracker{
		cfg:      cfg,
		thr:      resolveThresholds(cfg.Thresholds, m),
		m:        m,
		dim:      m.Dim(),
		rngState: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x1234567,
		lastNNZ:  m.QTableNNZ(),
		temp:     m.Temperature(),
		nnz:      m.QTableNNZ(),
	}
	m.EnableLearnStats()
	t.last = m.LearnStats()
	if fresh && cfg.ProbeEvery > 0 {
		t.shadowArmed = true
		t.shadow = make(map[int]map[int]float64)
		t.installHook()
	}
	return t
}

func resolveThresholds(thr Thresholds, m *core.Megh) Thresholds {
	def := DefThresholds()
	pick := func(v, d float64) float64 {
		if v == 0 {
			return d
		}
		return v
	}
	thr.DriftDegraded = pick(thr.DriftDegraded, def.DriftDegraded)
	thr.DriftDiverging = pick(thr.DriftDiverging, def.DriftDiverging)
	thr.ResidualDegraded = pick(thr.ResidualDegraded, def.ResidualDegraded)
	thr.ResidualDiverging = pick(thr.ResidualDiverging, def.ResidualDiverging)
	thr.InverseDegraded = pick(thr.InverseDegraded, def.InverseDegraded)
	thr.InverseDiverging = pick(thr.InverseDiverging, def.InverseDiverging)
	thr.ThetaDegraded = pick(thr.ThetaDegraded, def.ThetaDegraded)
	thr.ThetaDiverging = pick(thr.ThetaDiverging, def.ThetaDiverging)
	if thr.NNZGrowthDegraded == 0 {
		// The paper's Figure 7 expects near-linear growth; a sustained rate
		// of dim/20 new entries per decide means the Q-table is densifying.
		thr.NNZGrowthDegraded = float64(m.Dim()) / 20
	}
	return thr
}

func (t *Tracker) installHook() {
	t.m.SetUpdateHook(func(a, b, _ int, gamma, _ float64, applied bool) {
		if !applied {
			return
		}
		row := t.shadow[a]
		if row == nil {
			row = make(map[int]float64, 2)
			t.shadow[a] = row
		}
		row[a]++
		row[b] -= gamma
	})
}

// Detach is called when the learner is evicted (checkpointed and dropped):
// the tracker keeps every accumulated telemetry stream and its T shadow,
// drops the learner pointer, and counts the eviction. Snapshot keeps
// working from cached state — observing an evicted session never thaws it.
func (t *Tracker) Detach() {
	t.m = nil
	t.evictions++
}

// Reattach resumes tracking on a learner lazily restored from the
// checkpoint taken at Detach. Restores are byte-identical (exact-RNG
// checkpoints), so B picks up exactly where the shadow left off and the
// inverse probe stays armed; only the learner's cumulative LearnStats
// counters restart from zero, which Reattach rebases.
func (t *Tracker) Reattach(m *core.Megh) {
	t.m = m
	m.EnableLearnStats()
	t.last = m.LearnStats()
	t.lastNNZ = m.QTableNNZ()
	if t.shadowArmed && t.cfg.ProbeEvery > 0 {
		t.installHook()
	}
}

// Attached reports whether a live learner is currently being tracked.
func (t *Tracker) Attached() bool { return t.m != nil }

// Instrument mirrors the tracker's headline telemetry into reg as gauges
// (refreshed on every AfterDecide): the verdict as 0/1/2, the drift and
// residual EWMAs, and the last inverse-probe residual.
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
		inverse: reg.Gauge("megh_health_inverse_residual",
			"Sampled max |B*T - I| from the last inverse-drift probe.", nil),
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
		t.drift.add(t.cfg.Alpha, math.Sqrt(driftSq/float64(dd)))
		if rc := st.ResidualCount - t.last.ResidualCount; rc > 0 {
			t.resid.add(t.cfg.Alpha, (st.ResidualAbsSum-t.last.ResidualAbsSum)/float64(rc))
		}
		nnz := t.m.QTableNNZ()
		t.nnzRate.add(t.cfg.Alpha, float64(nnz-t.lastNNZ)/float64(dd))
		t.lastNNZ = nnz
	}
	t.applied += st.Applied - t.last.Applied
	t.skipped += st.Skipped - t.last.Skipped
	t.nonFinite += st.NonFinite - t.last.NonFinite
	t.last = st
	t.decides += dd

	t.temp = t.m.Temperature()
	t.nnz = t.m.QTableNNZ()

	if t.cfg.ProbeEvery > 0 {
		t.sinceProbe += dd
		if t.sinceProbe >= int64(t.cfg.ProbeEvery) {
			t.sinceProbe = 0
			t.runProbe()
			t.timeline = append(t.timeline, TempSample{Decide: t.decides, Temperature: t.temp})
			if len(t.timeline) > t.cfg.TimelineCap {
				t.timeline = t.timeline[len(t.timeline)-t.cfg.TimelineCap:]
			}
		}
	}
	t.evaluate()
}

// ObserveStep implements sim.StepObserver, so a Tracker can plug straight
// into sim.Config.Health.
func (t *Tracker) ObserveStep(step int, decideSeconds float64) { t.AfterDecide() }

// Probe forces a sampled probe now (outside the cadence); primarily for
// tests and the server's on-demand health endpoint refresh. No-op when
// probing is disabled or the learner is detached.
func (t *Tracker) Probe() {
	if t.m == nil || t.cfg.ProbeEvery <= 0 {
		return
	}
	t.runProbe()
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
		Decides:      t.decides,
		Verdict:      t.verdict.String(),
		Reason:       t.reason,
		Evictions:    t.evictions,
		InverseArmed: t.shadowArmed,
		ThetaDrift:   t.drift.v,
		Residual:     t.resid.v,
		Temperature:  t.temp,
		QTableNNZ:    t.nnz,
		NNZGrowth:    t.nnzRate.v,
		Applied:      t.applied,
		Skipped:      t.skipped,
		NonFinite:    t.nonFinite,
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
