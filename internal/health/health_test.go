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

// A normally learning session stays Healthy, probes run on cadence, and the
// inverse probe is available on a fresh learner.
func TestHealthyOnNormalRun(t *testing.T) {
	m, snap := newLearner(t, 7)
	tr := health.NewTracker(m, true, health.Config{ProbeEvery: 8, SampleRows: 6, Seed: 7})
	drive(m, tr, snap, 40, 1.5)
	v, reason := tr.Verdict()
	if v != health.Healthy {
		t.Fatalf("verdict = %s (%s), want healthy", v, reason)
	}
	s := tr.Snapshot()
	if s.Probe == nil {
		t.Fatal("no probe ran in 40 decides at cadence 8")
	}
	if !s.Probe.InverseAvailable {
		t.Fatal("inverse probe unavailable on a fresh learner")
	}
	if s.Probe.InverseResidualMax > 1e-8 {
		t.Fatalf("inverse residual %g on a consistent learner", s.Probe.InverseResidualMax)
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

// Driving costs across custom thresholds walks the verdict deterministically
// through Healthy → Degraded → Diverging with the matching reason strings.
func TestVerdictTransitions(t *testing.T) {
	m, snap := newLearner(t, 11)
	tr := health.NewTracker(m, true, health.Config{
		ProbeEvery: -1, // streaming EWMAs only; probes off
		Thresholds: health.Thresholds{
			DriftDegraded:  1e3,
			DriftDiverging: 1e7,
			// Residual scales with cost too; keep it out of the way so the
			// drift reasons are the ones asserted.
			ResidualDegraded:  1e30,
			ResidualDiverging: 1e31,
		},
		Seed: 11,
	})

	drive(m, tr, snap, 10, 1)
	if v, reason := tr.Verdict(); v != health.Healthy {
		t.Fatalf("after small costs: verdict = %s (%s), want healthy", v, reason)
	}

	drive(m, tr, snap, 30, 5e4)
	v, reason := tr.Verdict()
	if v != health.Degraded {
		t.Fatalf("after moderate costs: verdict = %s (%s), want degraded", v, reason)
	}
	if !strings.Contains(reason, "theta drift EWMA") || !strings.Contains(reason, ">= 1000") {
		t.Fatalf("degraded reason = %q, want theta drift EWMA vs 1000", reason)
	}

	drive(m, tr, snap, 30, 5e9)
	v, reason = tr.Verdict()
	if v != health.Diverging {
		t.Fatalf("after huge costs: verdict = %s (%s), want diverging", v, reason)
	}
	if !strings.Contains(reason, "theta drift EWMA") || !strings.Contains(reason, ">= 1e+07") {
		t.Fatalf("diverging reason = %q, want theta drift EWMA vs 1e+07", reason)
	}
}

// A non-finite cost is a corrupted update: the verdict flips to Diverging at
// the very next AfterDecide — well within one probe cadence — and the theta
// probe confirms the poisoned state.
func TestNaNCostDiverges(t *testing.T) {
	m, snap := newLearner(t, 3)
	tr := health.NewTracker(m, true, health.Config{ProbeEvery: 16, Seed: 3})
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

// If the tracker misses updates (hook detached — the stand-in for a
// corrupted/unobserved update stream), the inverse probe catches the drift
// between B and the shadowed T within one probe cadence.
func TestInverseProbeCatchesMissedUpdates(t *testing.T) {
	m, snap := newLearner(t, 5)
	tr := health.NewTracker(m, true, health.Config{ProbeEvery: 4, SampleRows: 12, Seed: 5})
	drive(m, tr, snap, 16, 2)
	if v, reason := tr.Verdict(); v != health.Healthy {
		t.Fatalf("pre-divergence verdict = %s (%s)", v, reason)
	}
	// Updates now bypass the shadow: B keeps moving, T's mirror does not.
	m.SetUpdateHook(nil)
	drive(m, tr, snap, 8, 2)
	v, reason := tr.Verdict()
	if v == health.Healthy {
		s := tr.Snapshot()
		t.Fatalf("verdict still healthy after divergence (probe=%+v)", s.Probe)
	}
	if !strings.Contains(reason, "inverse probe") {
		t.Fatalf("reason = %q, want inverse probe", reason)
	}
}

// Same-seed runs produce byte-identical health snapshots: the determinism
// guarantee extends to telemetry.
func TestSnapshotByteIdentical(t *testing.T) {
	run := func() []byte {
		m, snap := newLearner(t, 42)
		tr := health.NewTracker(m, true, health.Config{ProbeEvery: 8, SampleRows: 5, Seed: 42})
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

// A tracker attached to a restored learner (fresh=false) still runs the
// θ = B·z probe but reports the inverse probe unavailable.
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
	if s.InverseArmed {
		t.Fatal("inverse probe armed on a mid-stream attach")
	}
	if s.Probe == nil {
		t.Fatal("no probe ran")
	}
	if s.Probe.InverseAvailable {
		t.Fatal("inverse probe reported available without full observation")
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
	tr := health.NewTracker(m, true, health.Config{ProbeEvery: 8, Seed: 13})
	drive(m, tr, snap, 16, 2)
	before := tr.Snapshot()

	tr.Detach()
	if tr.Attached() {
		t.Fatal("tracker still attached after Detach")
	}
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
	if s.Probe == nil || !s.Probe.InverseAvailable {
		t.Fatal("inverse probe lost across detach/reattach")
	}
}

// The tracker plugs into sim.Config.Health and its gauges land in a
// registry.
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
	tr := health.NewTracker(m, true, health.Config{ProbeEvery: 4, Seed: 21})
	reg := obs.NewRegistry()
	tr.Instrument(reg)
	s, err := sim.New(sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces, Steps: 30,
		InitialPlacement: sim.PlacementRoundRobin,
		Seed:             21,
		Health:           tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(m); err != nil {
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
	for _, want := range []string{"megh_health_verdict", "megh_health_theta_drift_ewma", "megh_health_inverse_residual"} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry missing %s:\n%s", want, out)
		}
	}
}
