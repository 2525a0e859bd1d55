package health_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"megh/internal/core"
	"megh/internal/health"
	"megh/internal/obs"
	"megh/internal/power"
	"megh/internal/sim"
	"megh/internal/workload"
)

// testWorld builds a consistent snapshot through the simulator: nVMs VMs at
// low utilisation on nHosts hosts, so underload consolidation candidates
// exist and Decide produces migrations (and therefore LSPI updates).
func testWorld(t testing.TB, nVMs, nHosts int) *sim.Snapshot {
	t.Helper()
	lin, err := power.NewLinear("test", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]sim.HostSpec, nHosts)
	for i := range hosts {
		hosts[i] = sim.HostSpec{MIPS: 4000, RAMMB: 8192, BandwidthMbps: 1000, Power: lin}
	}
	vms := make([]sim.VMSpec, nVMs)
	traces := make([]workload.Trace, nVMs)
	for i := range vms {
		vms[i] = sim.VMSpec{MIPS: 1000, RAMMB: 1024, BandwidthMbps: 100}
		traces[i] = workload.Trace{0.1}
	}
	var snap *sim.Snapshot
	s, err := sim.New(sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces, Steps: 1,
		InitialPlacement: sim.PlacementRoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&snapGrabber{out: &snap}); err != nil {
		t.Fatal(err)
	}
	return snap
}

type snapGrabber struct{ out **sim.Snapshot }

func (snapGrabber) Name() string { return "grab" }

func (g *snapGrabber) Decide(s *sim.Snapshot) []sim.Migration {
	c := *s
	c.VMHost = append([]int(nil), s.VMHost...)
	c.VMUtil = append([]float64(nil), s.VMUtil...)
	c.VMMIPS = append([]float64(nil), s.VMMIPS...)
	c.HostUtil = append([]float64(nil), s.HostUtil...)
	c.HostVMs = make([][]int, len(s.HostVMs))
	for i := range s.HostVMs {
		c.HostVMs[i] = append([]int(nil), s.HostVMs[i]...)
	}
	c.HostFailed = append([]bool(nil), s.HostFailed...)
	*g.out = &c
	return nil
}

// drive runs steps of the observe→decide loop with a constant step cost.
func drive(m *core.Megh, tr *health.Tracker, snap *sim.Snapshot, steps int, cost float64) {
	for i := 0; i < steps; i++ {
		m.Observe(&sim.Feedback{StepCost: cost})
		m.Decide(snap)
		tr.AfterDecide()
	}
}

func newLearner(t testing.TB, seed int64) (*core.Megh, *sim.Snapshot) {
	t.Helper()
	m, err := core.New(core.DefaultConfig(8, 4, seed))
	if err != nil {
		t.Fatal(err)
	}
	return m, testWorld(t, 8, 4)
}

// A normally learning session stays Healthy and probes run on cadence.
func TestHealthyOnNormalRun(t *testing.T) {
	m, snap := newLearner(t, 7)
	tr := health.NewTracker(m, false, health.Config{ProbeEvery: 8, Seed: 7})
	drive(m, tr, snap, 40, 1.5)
	v, reason := tr.Verdict()
	if v != health.Healthy {
		t.Fatalf("verdict = %s (%s), want healthy", v, reason)
	}
	s := tr.Snapshot()
	if s.Probe == nil {
		t.Fatal("no probe ran in 40 decides at cadence 8")
	}
	if s.Probe.ThetaResidualMax > 1e-8 {
		t.Fatalf("theta residual %g on a consistent learner", s.Probe.ThetaResidualMax)
	}
	if s.Decides != 40 {
		t.Fatalf("decides = %d, want 40", s.Decides)
	}
	if len(s.TempTimeline) == 0 {
		t.Fatal("temperature timeline empty")
	}
	if s.Applied == 0 {
		t.Fatal("no LSPI updates observed — world produced no learning")
	}
}

// Driving costs across the shipped thresholds walks the verdict
// deterministically through Healthy → Degraded → Diverging with the
// matching reason strings. Drift is scored before the Bellman residual at
// each level, so the drift reasons are the ones asserted.
func TestVerdictTransitions(t *testing.T) {
	m, snap := newLearner(t, 11)
	// Streaming EWMAs only; probes off.
	tr := health.NewTracker(m, false, health.Config{ProbeEvery: -1, Seed: 11})

	drive(m, tr, snap, 10, 1)
	if v, reason := tr.Verdict(); v != health.Healthy {
		t.Fatalf("after small costs: verdict = %s (%s), want healthy", v, reason)
	}

	drive(m, tr, snap, 30, 1e6)
	v, reason := tr.Verdict()
	if v != health.Degraded {
		t.Fatalf("after moderate costs: verdict = %s (%s), want degraded", v, reason)
	}
	if !strings.Contains(reason, "theta drift EWMA") || !strings.Contains(reason, ">= 10000") {
		t.Fatalf("degraded reason = %q, want theta drift EWMA vs 10000", reason)
	}

	drive(m, tr, snap, 30, 1e10)
	v, reason = tr.Verdict()
	if v != health.Diverging {
		t.Fatalf("after huge costs: verdict = %s (%s), want diverging", v, reason)
	}
	if !strings.Contains(reason, "theta drift EWMA") || !strings.Contains(reason, ">= 1e+08") {
		t.Fatalf("diverging reason = %q, want theta drift EWMA vs 1e+08", reason)
	}
}

// A non-finite cost is a corrupted update: the verdict flips to Diverging at
// the very next AfterDecide — well within one probe cadence — and the theta
// probe confirms the poisoned state.
func TestNaNCostDiverges(t *testing.T) {
	m, snap := newLearner(t, 3)
	tr := health.NewTracker(m, false, health.Config{ProbeEvery: 16, Seed: 3})
	drive(m, tr, snap, 20, 1)
	if v, reason := tr.Verdict(); v != health.Healthy {
		t.Fatalf("pre-corruption verdict = %s (%s)", v, reason)
	}
	drive(m, tr, snap, 1, math.NaN())
	v, reason := tr.Verdict()
	if v != health.Diverging {
		t.Fatalf("post-NaN verdict = %s (%s), want diverging", v, reason)
	}
	if !strings.Contains(reason, "non-finite") {
		t.Fatalf("reason = %q, want non-finite", reason)
	}
	s := tr.Snapshot()
	if s.NonFinite == 0 {
		t.Fatal("NonFinite counter did not move")
	}
}

// Same-seed runs produce byte-identical health snapshots: the determinism
// guarantee extends to telemetry.
func TestSnapshotByteIdentical(t *testing.T) {
	run := func() []byte {
		m, snap := newLearner(t, 42)
		tr := health.NewTracker(m, false, health.Config{ProbeEvery: 8, Seed: 42})
		drive(m, tr, snap, 64, 3)
		b, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed snapshots differ:\n%s\n%s", a, b)
	}
}

// A tracker attached to a learner with history it never saw (a restored
// one) runs the θ = B·z probe and scores it like any other.
func TestRestoredLearnerThetaProbeOnly(t *testing.T) {
	m, snap := newLearner(t, 9)
	// Simulate a mid-stream attach: learner has history the tracker missed.
	for i := 0; i < 10; i++ {
		m.Observe(&sim.Feedback{StepCost: 2})
		m.Decide(snap)
	}
	tr := health.NewTracker(m, false, health.Config{ProbeEvery: 4, Seed: 9})
	drive(m, tr, snap, 8, 2)
	s := tr.Snapshot()
	if s.Probe == nil {
		t.Fatal("no probe ran")
	}
	if s.Probe.ThetaResidualMax > 1e-8 {
		t.Fatalf("theta residual %g on a consistent learner", s.Probe.ThetaResidualMax)
	}
	if v, reason := tr.Verdict(); v != health.Healthy {
		t.Fatalf("verdict = %s (%s), want healthy", v, reason)
	}
}

// Detach keeps the cached telemetry readable (the evicted-session
// observability guarantee) and Reattach rebases the learner's restarted
// counters without double counting.
func TestDetachReattach(t *testing.T) {
	m, snap := newLearner(t, 13)
	tr := health.NewTracker(m, false, health.Config{ProbeEvery: 8, Seed: 13})
	drive(m, tr, snap, 16, 2)
	before := tr.Snapshot()

	tr.Detach()
	tr.AfterDecide() // must be a no-op
	after := tr.Snapshot()
	if after.Decides != before.Decides || after.Applied != before.Applied {
		t.Fatalf("detached snapshot moved: %+v vs %+v", after, before)
	}
	if after.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", after.Evictions)
	}

	// The server restores byte-identically; reusing the same learner here
	// models that (its cumulative stats keep running, which Reattach's
	// rebase must tolerate just like a zeroed restart).
	tr.Reattach(m)
	drive(m, tr, snap, 8, 2)
	s := tr.Snapshot()
	if s.Decides != before.Decides+8 {
		t.Fatalf("decides after reattach = %d, want %d", s.Decides, before.Decides+8)
	}
	if v, reason := tr.Verdict(); v != health.Healthy {
		t.Fatalf("verdict = %s (%s), want healthy", v, reason)
	}
	if s.Probe == nil || s.Probe.AtDecide != s.Decides {
		t.Fatalf("probe %+v did not run on cadence across detach/reattach", s.Probe)
	}
}

// trackedPolicy runs a learner in the simulator and advances its tracker
// after every decide, the way the server does per request.
type trackedPolicy struct {
	*core.Megh
	tr *health.Tracker
}

func (p trackedPolicy) Decide(s *sim.Snapshot) []sim.Migration {
	migs := p.Megh.Decide(s)
	p.tr.AfterDecide()
	return migs
}

// A tracker follows a learner through a simulator run, and its gauges land
// in a registry: the three it publishes and no inverse-probe gauge.
func TestSimIntegrationAndGauges(t *testing.T) {
	lin, err := power.NewLinear("test", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	const nVMs, nHosts = 6, 3
	hosts := make([]sim.HostSpec, nHosts)
	for i := range hosts {
		hosts[i] = sim.HostSpec{MIPS: 4000, RAMMB: 8192, BandwidthMbps: 1000, Power: lin}
	}
	vms := make([]sim.VMSpec, nVMs)
	traces := make([]workload.Trace, nVMs)
	for i := range vms {
		vms[i] = sim.VMSpec{MIPS: 1000, RAMMB: 1024, BandwidthMbps: 100}
		tr := make(workload.Trace, 30)
		for k := range tr {
			tr[k] = 0.1 + 0.05*float64(i%3)
		}
		traces[i] = tr
	}
	m, err := core.New(core.DefaultConfig(nVMs, nHosts, 21))
	if err != nil {
		t.Fatal(err)
	}
	tr := health.NewTracker(m, false, health.Config{ProbeEvery: 4, Seed: 21})
	reg := obs.NewRegistry()
	tr.Instrument(reg)
	s, err := sim.New(sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces, Steps: 30,
		InitialPlacement: sim.PlacementRoundRobin,
		Seed:             21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(trackedPolicy{Megh: m, tr: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Decides() != 30 {
		t.Fatalf("tracker saw %d decides, want 30", tr.Decides())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"megh_health_verdict", "megh_health_theta_drift_ewma", "megh_health_bellman_residual_ewma"} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, "megh_health_inverse_residual") {
		t.Fatalf("registry still publishes an inverse-probe gauge:\n%s", out)
	}
}
