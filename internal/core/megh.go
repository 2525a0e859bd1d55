// Package core implements Megh, the paper's primary contribution: an online
// reinforcement-learning policy for live VM migration (Algorithms 1 and 2).
//
// Megh models migration as an infinite-horizon discounted MDP (§4) and runs
// least-squares policy iteration over a d = N·M-dimensional projection of
// the state-action space spanned by the sparse basis {φ_jk} (§5, Theorem 1).
// The inverse transition operator B = T⁻¹ is maintained incrementally with
// the Sherman–Morrison formula (Eq. 11) on a sparse triplet-backed matrix,
// so each step costs O(#migrations) rather than O(d³) (§5.2). Actions are
// drawn by Boltzmann exploration with an exponentially decaying temperature
// (Algorithm 2).
//
// Deviations from the pseudocode, and why, are catalogued in DESIGN.md §5:
// Boltzmann weights are *sampled* rather than arg-maxed, multiple actions
// per step share the observed interval cost, the action space contains a
// "stay" per VM, and per-step candidate VMs are drawn from overloaded and
// underloaded hosts plus an exploratory draw (the practical embodiment of
// §3.1's "Megh may migrate the VMs allocated in an underloaded PM … if a PM
// gets overloaded, some of the VMs operating on it are migrated").
package core

import (
	"fmt"
	"math"
	"time"

	"megh/internal/mdp"
	"megh/internal/obs"
	"megh/internal/sim"
	"megh/internal/sparse"
	"megh/internal/trace"
)

// Config parameterises a Megh learner. The defaults mirror §6.1.
type Config struct {
	// NumVMs (N) and NumHosts (M) fix the projected space dimension d = N·M.
	NumVMs, NumHosts int
	// Gamma is the discount factor γ (paper: 0.5).
	Gamma float64
	// Temp0 is the initial Boltzmann temperature (paper: 3).
	Temp0 float64
	// Epsilon is the temperature decay rate, Temp ← Temp·exp(−ε)
	// (paper: 0.01; the sensitivity study also uses 0.001).
	Epsilon float64
	// MaxMigrationsFrac caps per-step migrations at ⌈frac·N⌉ (paper: 0.02).
	MaxMigrationsFrac float64
	// UnderloadThreshold marks a host as a consolidation source when its
	// utilization falls below it (§3.1's underloaded-PM rule).
	UnderloadThreshold float64
	// ExplorationRate is the per-step probability of adding one uniformly
	// drawn candidate VM on top of the overload/underload candidates.
	ExplorationRate float64
	// Seed drives exploration randomness.
	Seed int64

	// NNZHistoryCap bounds the per-step Q-table-size history (Figure 7's
	// series): once the cap is reached the history becomes a ring and the
	// oldest entries are overwritten, so a long-lived meghd session holds
	// a fixed amount of bookkeeping instead of leaking one int per step.
	// 0 selects DefaultNNZHistoryCap; a negative value opts into unbounded
	// retention (the experiments harness, which needs the full series for
	// a bounded run, sets this).
	NNZHistoryCap int
}

// DefaultNNZHistoryCap is the NNZHistory ring size when Config.NNZHistoryCap
// is zero: large enough to cover every figure in the paper's experiments at
// full resolution, small enough (512 KiB of ints) to be irrelevant to a
// server's footprint.
const DefaultNNZHistoryCap = 65536

// The world-size ceilings Validate enforces. A learner's tables are paged and
// cost what they hold, but their slot tables and the per-VM and per-host
// scratch are sized by the declared world, and the declaration arrives from
// outside (a session PUT, a checkpoint header): unbounded, sixty bytes of
// JSON could ask for a 480 GB block. At the ceilings an empty learner
// allocates 65–130 MiB, whatever its shape — the order of a full
// eager-budget one (DESIGN.md §5). maxActions is 13 × the largest grid
// anything here runs (10 000 × 1 000).
const (
	maxActions = 1 << 27 // N·M
	maxAxis    = 1 << 20 // N, and M
)

// DefaultConfig returns the paper's §6.1 parameters for an N-VM, M-host
// data center.
func DefaultConfig(numVMs, numHosts int, seed int64) Config {
	return Config{
		NumVMs:             numVMs,
		NumHosts:           numHosts,
		Gamma:              0.5,
		Temp0:              3,
		Epsilon:            0.01,
		MaxMigrationsFrac:  0.02,
		UnderloadThreshold: 0.1,
		ExplorationRate:    0.1,
		Seed:               seed,
	}
}

// Validate reports the first invalid parameter. Non-finite parameters are
// rejected explicitly: NaN compares false against every range bound, so
// without this guard a corrupted checkpoint could smuggle NaN into the
// learner and poison every Q value downstream.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Gamma", c.Gamma}, {"Temp0", c.Temp0}, {"Epsilon", c.Epsilon},
		{"MaxMigrationsFrac", c.MaxMigrationsFrac},
		{"UnderloadThreshold", c.UnderloadThreshold},
		{"ExplorationRate", c.ExplorationRate},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %g is not finite", f.name, f.v)
		}
	}
	switch {
	case c.NumVMs <= 0:
		return fmt.Errorf("core: NumVMs %d must be positive", c.NumVMs)
	case c.NumHosts <= 0:
		return fmt.Errorf("core: NumHosts %d must be positive", c.NumHosts)
	case c.NumVMs > maxAxis || c.NumHosts > maxAxis:
		return fmt.Errorf("core: world of %d VMs × %d hosts exceeds %d on one axis", c.NumVMs, c.NumHosts, maxAxis)
	case c.NumVMs > maxActions/c.NumHosts:
		return fmt.Errorf("core: %d×%d actions exceed the ceiling of %d", c.NumVMs, c.NumHosts, maxActions)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("core: Gamma %g out of [0,1)", c.Gamma)
	case c.Temp0 <= 0:
		return fmt.Errorf("core: Temp0 %g must be positive", c.Temp0)
	case c.Epsilon < 0:
		return fmt.Errorf("core: Epsilon %g must be non-negative", c.Epsilon)
	case c.MaxMigrationsFrac <= 0 || c.MaxMigrationsFrac > 1:
		return fmt.Errorf("core: MaxMigrationsFrac %g out of (0,1]", c.MaxMigrationsFrac)
	case c.UnderloadThreshold < 0 || c.UnderloadThreshold > 1:
		return fmt.Errorf("core: UnderloadThreshold %g out of [0,1]", c.UnderloadThreshold)
	case c.ExplorationRate < 0 || c.ExplorationRate > 1:
		return fmt.Errorf("core: ExplorationRate %g out of [0,1]", c.ExplorationRate)
	}
	return nil
}

// Megh is the learner. It implements sim.Policy and sim.FeedbackReceiver.
// It is not safe for concurrent use; one instance drives one simulation.
type Megh struct {
	cfg Config
	d   int

	// b is B = T⁻¹, initialised to (1/δ)·I with δ = d (Algorithm 1 line 2).
	// Each action's record in it also holds the action's cell of z, which
	// accumulates Σ φ_{a_t}·C_{t+1} (Algorithm 1 line 10), and of θ = B·z
	// (line 11), maintained incrementally: all three have the actions taken
	// as their support. The Boltzmann inner loop in sampleDestination reads
	// one Q value per (candidate, host) pair, so θ lookups are the single
	// hottest read in the system — a page's record number, and the record's
	// cell where there is one, instead of a sparse search. VM j's Q row is
	// cells [j·M, (j+1)·M); an action never taken has no record and reads
	// zero.
	b *sparse.Matrix

	temp float64
	rng  *xrand

	// pending holds the action indices chosen last step, awaiting the
	// observed cost to complete their LSPI update. pendingTotal remembers
	// how many actions were chosen before Observe reconciled away any the
	// environment rejected: the interval's cost was generated by the full
	// intended action set, so each survivor's share is stepCost divided by
	// pendingTotal, not by the post-reconcile count (which would inflate
	// every survivor's share whenever a sibling was rejected).
	pending      []int
	pendingTotal int
	stepCost     float64
	haveCost     bool

	// nnzHistory records b.NNZ() after each Decide — Figure 7's series —
	// bounded by Config.NNZHistoryCap as a ring: once full, nnzStart is the
	// index of the oldest (next-overwritten) entry and the chronological
	// series wraps around it.
	nnzHistory []int
	nnzStart   int

	// updateHook, when non-nil, observes every rank-1 LSPI update the
	// learner attempts (SetUpdateHook). The verification layer
	// (internal/invariant) uses it to maintain an independent dense mirror
	// of T and z.
	updateHook func(a, b, n int, gamma, c float64, applied bool)

	// metrics, when non-nil, mirrors the learner internals into an obs
	// registry (Instrument).
	metrics *meghMetrics

	// learnStats, when non-nil, accumulates the learning-health sums the
	// health layer polls (EnableLearnStats). Nil costs one pointer test on
	// the update path and nothing on the decide path.
	learnStats *LearnStats

	// tracer, when non-nil, receives one structured event per Decide
	// (Trace). spans points at spanScratch while a timed Decide is in
	// flight and is nil otherwise; traceCands and traceEv are reused
	// across steps so the enabled path allocates only inside the tracer.
	tracer      *trace.Tracer
	spans       *trace.SpanRecorder
	spanScratch trace.SpanRecorder
	traceCands  []trace.Candidate
	traceEv     trace.Event

	// scratch state for per-step feasibility tracking, candidate
	// selection, sampling and the LSPI update, reused across steps so an
	// untraced Decide allocates nothing. hostRAM and hostMIPS hold each
	// host's aggregate committed RAM and demanded MIPS including this
	// step's already-chosen migrations, so feasibility checks are O(1)
	// per destination.
	hostRAM         []float64
	hostMIPS        []float64
	hostRAMCap      []float64 // host RAM capacities, refreshed when HostSpecs changes
	hostMIPSCap     []float64 // host MIPS capacities, refreshed when HostSpecs changes
	hostActive      []bool
	feasibleScratch []int
	qScratch        []float64
	seenScratch     []bool          // candidate dedup, one flag per VM
	candScratch     []candidate     // candidates() output
	actionScratch   []int           // selectActions action indices
	migScratch      []sim.Migration // Decide's returned migrations
	pendingBuf      []int           // backing array for pending
	rejectedScratch map[int]bool    // Observe's rejected-action set

	// Per-host table upkeep (aggregates.go). All of it is runtime-only —
	// never persisted — and none of it can change a decision: the tables
	// after a refresh are a function of the snapshot alone.
	prevHostSpecs []sim.HostSpec // backing identity of the last-seen HostSpecs
	hostVMCount   []int
	penAll        []float64 // +Inf iff failed, else 0 (scan feasibility mask)
	penFailed     bool      // penAll holds a +Inf (a host failed last refresh)
	activeList    []int     // ascending active hosts (the scan's walk)
	allHosts      []int     // 0..M-1 (the overload fallback's walk)
	wokenHosts    []int     // sweep scratch: hosts that gained their first VM
	undoLog       []aggUndo // speculative charges to roll back next refresh
}

var (
	_ sim.Policy           = (*Megh)(nil)
	_ sim.FeedbackReceiver = (*Megh)(nil)
)

// New constructs a Megh learner.
func New(cfg Config) (*Megh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := mdp.SpaceSize(cfg.NumVMs, cfg.NumHosts)
	b := sparse.NewMatrix(d, 1/float64(d))
	// Entries this far below B's initial 1/δ scale cannot influence any
	// Q comparison; dropping them keeps the Q-table growth linear in the
	// migration count (§5.2, Figure 7).
	b.SetDropTolerance(1e-9 / float64(d))
	return assemble(cfg, b), nil
}

// assemble builds a learner around the given LSPI state (B with its z and θ
// cells, of dimension N·M) — a fresh one from New, a persisted one from
// LoadState. cfg must already be validated.
func assemble(cfg Config, b *sparse.Matrix) *Megh {
	allHosts := make([]int, cfg.NumHosts)
	for i := range allHosts {
		allHosts[i] = i
	}
	return &Megh{
		cfg:         cfg,
		d:           mdp.SpaceSize(cfg.NumVMs, cfg.NumHosts),
		b:           b,
		temp:        cfg.Temp0,
		rng:         newXrand(cfg.Seed),
		hostRAM:     make([]float64, cfg.NumHosts),
		hostMIPS:    make([]float64, cfg.NumHosts),
		hostRAMCap:  make([]float64, cfg.NumHosts),
		hostMIPSCap: make([]float64, cfg.NumHosts),
		hostActive:  make([]bool, cfg.NumHosts),
		seenScratch: make([]bool, cfg.NumVMs),
		hostVMCount: make([]int, cfg.NumHosts),
		penAll:      make([]float64, cfg.NumHosts),
		allHosts:    allHosts,
	}
}

// Name implements sim.Policy.
func (m *Megh) Name() string { return "Megh" }

// Config returns the learner's configuration (useful to validate that a
// restored checkpoint matches the world it is asked to schedule).
func (m *Megh) Config() Config { return m.cfg }

// meghMetrics caches the learner's obs instruments.
type meghMetrics struct {
	decideSeconds *obs.Histogram
	qtableNNZ     *obs.Gauge
	qtableBytes   *obs.Gauge
	temperature   *obs.Gauge
	rejected      *obs.Counter
}

// Instrument mirrors the learner's internals into reg after every Decide:
// per-Decide wall time, Q-table NNZ (Figure 7's metric) and resident bytes,
// the Boltzmann temperature, and the count of proposed actions the
// environment rejected.
// A nil registry disables instrumentation.
func (m *Megh) Instrument(reg *obs.Registry) {
	if reg == nil {
		m.metrics = nil
		return
	}
	m.metrics = &meghMetrics{
		decideSeconds: reg.Histogram("megh_decide_seconds",
			"Wall-clock time of one Megh.Decide call.", nil),
		qtableNNZ: reg.Gauge("megh_qtable_nnz",
			"Materialised entries in the Q-table operator B (Figure 7).", nil),
		qtableBytes: reg.Gauge("megh_qtable_resident_bytes",
			"Bytes the Q-table holds in memory: B's page table and allocated pages, and the records of the actions taken, with their rows, member lists and z and theta cells.", nil),
		temperature: reg.Gauge("megh_temperature",
			"Current Boltzmann exploration temperature.", nil),
		rejected: reg.Counter("megh_actions_rejected_total",
			"Proposed migrations rejected by the environment and dropped from the LSPI update.", nil),
	}
	// A restored or just-built learner has a size before its first Decide.
	m.metrics.publish(m)
}

// publish refreshes the gauges from the learner.
func (mm *meghMetrics) publish(m *Megh) {
	mm.qtableNNZ.Set(float64(m.b.NNZ()))
	mm.qtableBytes.Set(float64(m.QTableResidentBytes()))
	mm.temperature.Set(m.temp)
}

// Trace attaches a decision tracer: every Decide then emits one
// structured event (state digest, candidates considered with their
// Q-value context, chosen actions, and — when the tracer records
// timings — a span breakdown of the decide path). A nil tracer disables
// tracing; the disabled path performs a single pointer test and
// allocates nothing. Tracing never touches the exploration RNG, so a
// traced and an untraced run with the same seed make identical
// decisions.
func (m *Megh) Trace(t *trace.Tracer) { m.tracer = t }

// SetUpdateHook installs an observer called once per attempted rank-1 LSPI
// update, after the Sherman–Morrison step: a and b are the action indices
// of Eq. 10, n is always 1 (each update is one observed transition), gamma
// the discount, c the cost added to z[a], and applied reports whether the
// update was applied (false when it was skipped as numerically singular, in
// which case z and θ were left untouched too). A nil hook (the default)
// costs one pointer test.
//
// The hook exists for verification and measurement only: internal/invariant's
// tests shadow the sparse recursion with an independent dense accumulation
// of T and z and periodically check ‖B·T − I‖∞, and the benchmark module's
// sparse probe records the update sequence. Production code installs no
// hook. It fires once per update, never mid-update, so a probe run from
// inside the hook sees B, z and θ coherent.
func (m *Megh) SetUpdateHook(h func(a, b, n int, gamma, c float64, applied bool)) {
	m.updateHook = h
}

// Dim returns the projected space dimension d = N·M.
func (m *Megh) Dim() int { return m.d }

// Temperature returns the current Boltzmann temperature.
func (m *Megh) Temperature() float64 { return m.temp }

// QTableNNZ returns the number of materialised entries in B — the paper's
// "non-zero elements in the Q-table" metric (Figure 7).
func (m *Megh) QTableNNZ() int { return m.b.NNZ() }

// QTableResidentBytes returns what the Q-table holds in memory: B's page
// table and allocated pages, and the records of the actions taken — their
// rows, member lists and z and θ cells. Past the eager budget it follows
// what migrations have touched, not N·M.
func (m *Megh) QTableResidentBytes() int {
	return m.b.ResidentBytes()
}

// NNZHistory returns the per-step Q-table sizes recorded so far, oldest
// first. Until the Config.NNZHistoryCap ring wraps this is the learner's
// live slice (callers must copy anything they keep, as the experiments
// harness does); once wrapped it is a freshly allocated chronological copy
// of the most recent cap entries.
func (m *Megh) NNZHistory() []int {
	if m.nnzStart == 0 {
		return m.nnzHistory
	}
	out := make([]int, 0, len(m.nnzHistory))
	out = append(out, m.nnzHistory[m.nnzStart:]...)
	return append(out, m.nnzHistory[:m.nnzStart]...)
}

// nnzCap resolves Config.NNZHistoryCap: 0 means DefaultNNZHistoryCap,
// negative means unbounded (returns -1).
func (m *Megh) nnzCap() int {
	switch {
	case m.cfg.NNZHistoryCap < 0:
		return -1
	case m.cfg.NNZHistoryCap == 0:
		return DefaultNNZHistoryCap
	default:
		return m.cfg.NNZHistoryCap
	}
}

// recordNNZ appends one Q-table-size sample, overwriting the oldest entry
// once the configured cap is reached so a long-lived learner's bookkeeping
// stays bounded.
func (m *Megh) recordNNZ(v int) {
	if cap_ := m.nnzCap(); cap_ < 0 || len(m.nnzHistory) < cap_ {
		m.nnzHistory = append(m.nnzHistory, v)
		return
	}
	m.nnzHistory[m.nnzStart] = v
	m.nnzStart++
	if m.nnzStart == len(m.nnzHistory) {
		m.nnzStart = 0
	}
}

// Q returns the learned cost-to-go estimate θᵀφ_a for an action.
func (m *Megh) Q(a mdp.Action) float64 {
	return m.b.Theta(a.Index(m.cfg.NumHosts))
}

// Observe implements sim.FeedbackReceiver: it records the realised
// per-stage cost C_{t+1} of Eq. 6 for the actions chosen at step t, and
// reconciles the pending LSPI actions with what actually executed — a
// migration the environment rejected never changed the configuration, so
// learning it as an executed transition would credit the interval's cost to
// a state-action pair that was never visited.
func (m *Megh) Observe(fb *sim.Feedback) {
	m.stepCost = fb.StepCost
	m.haveCost = true
	if len(fb.Rejected) == 0 || len(m.pending) == 0 {
		return
	}
	if m.rejectedScratch == nil {
		m.rejectedScratch = make(map[int]bool, len(fb.Rejected))
	} else {
		clear(m.rejectedScratch)
	}
	rejected := m.rejectedScratch
	for _, mig := range fb.Rejected {
		if mig.VM >= 0 && mig.VM < m.cfg.NumVMs && mig.Dest >= 0 && mig.Dest < m.cfg.NumHosts {
			rejected[mig.VM*m.cfg.NumHosts+mig.Dest] = true
		}
	}
	kept := m.pending[:0]
	dropped := 0
	for _, a := range m.pending {
		if rejected[a] {
			dropped++
			continue
		}
		kept = append(kept, a)
	}
	m.pending = kept
	if m.metrics != nil && dropped > 0 {
		m.metrics.rejected.Add(int64(dropped))
	}
}

// Decide implements sim.Policy. Each call performs one iteration of
// Algorithm 1: select this step's actions with the current policy
// (Algorithm 2), then complete the pending LSPI update for last step's
// actions using the cost observed in between.
//
// The returned slice is scratch owned by the learner and is only valid
// until the next Decide or DecideAppend call; callers that retain
// migrations past that point — in particular callers that release a lock
// serialising learner access before reading the result — must copy them
// first, or use DecideAppend, which returns caller-owned storage. The
// simulator consumes the slice within the step, so the hot loop keeps the
// zero-copy form. With tracing disabled the whole decide path is
// allocation-free.
func (m *Megh) Decide(s *sim.Snapshot) []sim.Migration {
	if s.NumVMs() != m.cfg.NumVMs || s.NumHosts() != m.cfg.NumHosts {
		panic(fmt.Sprintf("core: snapshot %d×%d does not match Megh config %d×%d",
			s.NumVMs(), s.NumHosts(), m.cfg.NumVMs, m.cfg.NumHosts))
	}
	if m.metrics != nil {
		start := time.Now()
		defer func() {
			m.metrics.decideSeconds.Observe(time.Since(start).Seconds())
			m.metrics.publish(m)
		}()
	}
	m.spans = nil
	if m.tracer != nil {
		m.traceCands = m.traceCands[:0]
		if m.tracer.Timings() {
			m.spans = &m.spanScratch
			m.spans.Reset()
		}
	}
	// Temperature decay (Algorithm 2 line 2).
	m.temp *= math.Exp(-m.cfg.Epsilon)
	if m.temp < 1e-9 {
		m.temp = 1e-9
	}

	actions, migrations := m.selectActions(s)

	// Complete the pending update: for each action a taken at step t,
	// T ← T + φ_a(φ_a − γφ_b)ᵀ with b = π_t(s_{t+1}) (Eq. 10), B via
	// Sherman–Morrison (Eq. 11), z ← z + φ_a·C (line 10), θ = B·z
	// (line 11, maintained incrementally).
	if m.haveCost && len(m.pending) > 0 {
		next := m.pending[0]
		if len(actions) > 0 {
			next = actions[0]
		}
		// The interval's cost was generated by every action chosen last
		// step, including any the environment rejected and Observe
		// reconciled away — dividing by the survivor count alone would
		// inflate each survivor's share. pendingTotal is the pre-reconcile
		// count.
		share := m.stepCost / float64(m.pendingTotal)
		for _, a := range m.pending {
			m.update(a, next, share)
		}
	}
	m.spans.Mark("update")
	m.haveCost = false
	if len(actions) > 0 {
		// actions lives in actionScratch, which the next Decide reuses;
		// pending needs its own backing so the copy survives the step.
		m.pendingBuf = append(m.pendingBuf[:0], actions...)
		m.pending = m.pendingBuf
		m.pendingTotal = len(actions)
	}
	// When a step produces no decisions, the previous actions stay
	// pending: the configuration they created remains in effect, so
	// subsequent interval costs keep informing their value (a sequence of
	// implicit self-transitions, v = (1−γ)·φ_a).

	m.recordNNZ(m.b.NNZ())
	if m.learnStats != nil {
		m.learnStats.Decides++
	}
	if m.tracer != nil {
		m.traceEv = trace.Event{
			Kind:        trace.KindDecide,
			Step:        s.Step,
			Digest:      trace.DigestString(trace.Digest64(s.Step, s.VMHost, s.HostFailed)),
			Policy:      m.Name(),
			Temperature: m.temp,
			QTableNNZ:   m.b.NNZ(),
			Candidates:  m.traceCands,
			Spans:       m.spans.Spans(),
		}
		m.tracer.Emit(&m.traceEv)
	}
	return migrations
}

// DecideAppend runs exactly one Decide step but appends the chosen
// migrations to dst and returns the extended slice, which the caller owns:
// unlike Decide's scratch return, it remains valid across later decide
// calls. When dst has spare capacity the call allocates nothing beyond what
// Decide itself does, so callers that must retain results (e.g. the HTTP
// service) can reuse one buffer across requests.
func (m *Megh) DecideAppend(dst []sim.Migration, s *sim.Snapshot) []sim.Migration {
	return append(dst, m.Decide(s)...)
}

// update applies one LSPI transition (a taken, b the policy's next action,
// c the per-stage cost share), maintaining B, z and θ = B·z incrementally:
//
//	B' = B − (B·u)(vᵀB)/den          u = φ_a, v = φ_a − γφ_b
//	θ' = B'·(z + c·φ_a) = θ − (B·u)(vᵀθ)/den + c·col_a(B')
//
// B·u is column a of B and v has two non-zeros, so the whole transition
// runs through the structure-exploiting ShermanMorrisonBasis kernel, and θ
// is maintained along the column snapshots the kernel already took
// (AddThetaScaledCol / AddThetaNewCol) — no vector allocations and no
// extra column walks. A numerically singular update is skipped (the
// operator would lose invertibility), matching the guarded inverse of §5.2.
//
// The update hook observes the update once, so the invariant layer's dense
// T/z shadow stays in lockstep.
func (m *Megh) update(a, b int, c float64) {
	vTheta := m.b.Theta(a) - m.cfg.Gamma*m.b.Theta(b)
	if _, err := m.b.ShermanMorrisonBasis(a, b, m.cfg.Gamma); err != nil {
		if m.learnStats != nil {
			m.learnStats.Skipped++
		}
		if m.updateHook != nil {
			m.updateHook(a, b, 1, m.cfg.Gamma, c, false)
		}
		return
	}
	ls := m.learnStats
	if ls != nil {
		// Bellman residual of the transition against the pre-update θ.
		resid := vTheta - c
		if resid < 0 {
			resid = -resid
		}
		if isBad(resid) {
			ls.NonFinite++
		} else {
			ls.ResidualAbsSum += resid
		}
		ls.ResidualCount++
		ls.Applied++
	}
	if vTheta != 0 {
		// θ needs (B·u)/den with B from *before* the rank-1 update; the
		// kernel snapshotted exactly that column, already scaled. The
		// subtraction is a scatter-add with a negated scale: x += (−a)·v is
		// bitwise x −= a·v, and (−d)² == d², pinned by sparse's
		// TestScatterNegatedScaleMatchesSubtraction.
		ls.addDrift(m.b.AddThetaScaledCol(-vTheta))
	}
	m.b.AddZ(a, c)
	if c != 0 {
		ls.addDrift(m.b.AddThetaNewCol(c))
	}
	if m.updateHook != nil {
		m.updateHook(a, b, 1, m.cfg.Gamma, c, true)
	}
}

// candidate pairs a VM with the reason it is being decided this step; the
// reason constrains its destination set (and labels the trace event).
type candidate struct {
	vm int
	// reason is one of trace.ReasonOverload, trace.ReasonUnderload,
	// trace.ReasonExploration. An overload shed (and only it) may wake a
	// sleeping destination, and only when no active host fits.
	reason string
}

// overload reports whether the candidate was shed from an overloaded host.
func (c candidate) overload() bool { return c.reason == trace.ReasonOverload }

// selectActions picks this step's candidate VMs and samples one action per
// candidate from the Boltzmann distribution over the learned Q row. The
// returned slices are scratch reused by the next Decide.
func (m *Megh) selectActions(s *sim.Snapshot) (actions []int, migrations []sim.Migration) {
	maxMig := int(math.Ceil(m.cfg.MaxMigrationsFrac * float64(m.cfg.NumVMs)))
	if maxMig < 1 {
		maxMig = 1
	}
	m.refreshHostAggregates(s)
	candidates := m.candidates(s, maxMig)
	m.spans.Mark("project")
	actions, migrations = m.chooseFromCandidates(s, candidates, maxMig)
	m.spans.Mark("sample")
	return actions, migrations
}

// chooseFromCandidates samples one destination per candidate and emits at
// most migBudget migrations. A candidate whose sampled move arrives after
// the budget is exhausted is recorded as its *stay-put* action: no
// migration is requested for it, so the VM factually stays where it is,
// and recording the sampled move instead would feed the LSPI update a
// transition that never executed — the next interval's cost would be
// credited to a state-action pair that was never visited, and the host
// aggregates (already charged for the move) would diverge from the action
// list. The invariant is pending ⊆ emitted ∪ stay-put, pinned by
// TestChooseFromCandidatesClipsToStayPut.
func (m *Megh) chooseFromCandidates(s *sim.Snapshot, candidates []candidate, migBudget int) (actions []int, migrations []sim.Migration) {
	if len(candidates) == 0 {
		return nil, nil
	}
	actions = m.actionScratch[:0]
	migrations = m.migScratch[:0]
	for _, c := range candidates {
		dest, act := m.sampleDestination(s, c)
		if dest != s.VMHost[c.vm] {
			if migBudget > 0 {
				migrations = append(migrations, sim.Migration{VM: c.vm, Dest: dest})
				m.speculate(s, c.vm, dest)
				migBudget--
			} else {
				act = c.vm*m.cfg.NumHosts + s.VMHost[c.vm]
			}
		}
		actions = append(actions, act)
	}
	m.actionScratch = actions
	m.migScratch = migrations
	return actions, migrations
}

// candidates assembles the step's decision set: the heaviest VM of each
// overloaded host, the VMs of the most underloaded active host
// (consolidation source, §3.1), and at most one uniform exploration draw
// (taken with probability ExplorationRate); deduplicated and capped. Both
// host loops range over activeList, which refreshHostAggregates has just
// left as the ascending list of hosts with a VM — the hosts a scan of all M
// would stop at, in the order it would meet them.
func (m *Megh) candidates(s *sim.Snapshot, cap_ int) []candidate {
	// seenScratch and candScratch are scratch reused across steps (a
	// closure over locals here would heap-allocate every call); the result
	// is valid until the next candidates call.
	clear(m.seenScratch)
	m.candScratch = m.candScratch[:0]
	// Overloaded hosts: shed pressure, one decision per host per step so
	// a batch does not overshoot below the threshold (an unresolved
	// overload re-triggers next step). The heaviest VM is the decisive
	// one to re-place.
	for _, i := range m.activeList {
		if len(m.candScratch) >= cap_ {
			break
		}
		if !s.HostOverloaded(i) {
			continue
		}
		heaviest, demand := -1, -1.0
		for _, j := range s.HostVMs[i] {
			if s.VMMIPS[j] > demand {
				heaviest, demand = j, s.VMMIPS[j]
			}
		}
		m.addCandidate(heaviest, trace.ReasonOverload, cap_)
	}
	// Most underloaded active host below the threshold: consolidation
	// (may only target already-active hosts — never wake a machine to
	// empty another).
	minUtil := m.cfg.UnderloadThreshold
	minHost := -1
	for _, i := range m.activeList {
		if s.HostUtil[i] < minUtil {
			minUtil = s.HostUtil[i]
			minHost = i
		}
	}
	if minHost >= 0 {
		for _, j := range s.HostVMs[minHost] {
			m.addCandidate(j, trace.ReasonUnderload, cap_)
		}
	}
	// An occasional exploration draw keeps the learner sampling the rest
	// of the space.
	if m.rng.Float64() < m.cfg.ExplorationRate && len(m.candScratch) < cap_ {
		// Draw before the liveness test so lifecycle runs consume exactly
		// the draws a fixed-population run would — byte-identical traces
		// depend on the RNG stream, not on who is alive.
		if j := m.rng.Intn(s.NumVMs()); s.VMLive(j) {
			m.addCandidate(j, trace.ReasonExploration, cap_)
		}
	}
	return m.candScratch
}

// addCandidate appends VM j to the candidate scratch unless it is already
// present or the cap is reached. A plain method (not a closure over locals)
// so the untraced Decide path stays allocation-free.
func (m *Megh) addCandidate(j int, reason string, cap_ int) {
	if !m.seenScratch[j] && len(m.candScratch) < cap_ {
		m.seenScratch[j] = true
		m.candScratch = append(m.candScratch, candidate{vm: j, reason: reason})
	}
}

// sampleDestination draws host k for VM j from the Boltzmann distribution
// exp(−(Q(j,k) − minQ)/Temp) over the feasible destinations (including the
// stay action), which is Algorithm 2 with sampling instead of arg-max.
// It returns the chosen destination and the action index.
func (m *Megh) sampleDestination(s *sim.Snapshot, c candidate) (dest, actionIdx int) {
	j := c.vm
	cur := s.VMHost[j]
	base := j * m.cfg.NumHosts

	// Collect feasible destinations and their Q values. Active hosts are
	// preferred; an overload shed may wake a sleeping machine, but only
	// when no active host can absorb the VM.
	feasible, qs, minQ := m.scanRow(s, j, cur, base, m.activeList)
	if c.overload() && len(feasible) <= 1 { // only the stay option found
		feasible, qs, minQ = m.scanRow(s, j, cur, base, m.allHosts)
	}
	chosen := cur
	if len(feasible) > 0 {
		// Boltzmann weights; the minimum-Q action always has weight 1, so
		// the total never underflows. The q == minQ short-circuit is
		// bitwise-free: q−minQ is then a signed zero and Exp(±0) is exactly
		// 1 — but most θ entries of an untrained row are 0 == minQ, so it
		// skips the Exp call on the bulk of the lanes.
		var total float64
		for i, q := range qs {
			var w float64
			if q == minQ {
				w = 1
			} else {
				w = math.Exp(-(q - minQ) / m.temp)
			}
			qs[i] = w
			total += w
		}
		r := m.rng.Float64() * total
		chosen = feasible[len(feasible)-1]
		for i, w := range qs {
			r -= w
			if r <= 0 {
				chosen = feasible[i]
				break
			}
		}
	}
	if m.tracer != nil {
		stayQ := m.b.Theta(base + cur)
		bestQ := minQ
		if len(feasible) == 0 {
			bestQ = stayQ
		}
		m.traceCands = append(m.traceCands, trace.Candidate{
			VM:       j,
			Reason:   c.reason,
			From:     cur,
			Dest:     chosen,
			Feasible: len(feasible),
			QChosen:  m.b.Theta(base + chosen),
			QBest:    bestQ,
			QStay:    stayQ,
		})
	}
	return chosen, base + chosen
}
