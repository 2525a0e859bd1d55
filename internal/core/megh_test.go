package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"megh/internal/mdp"
	"megh/internal/obs"
	"megh/internal/power"
	"megh/internal/sim"
	"megh/internal/sparse"
	"megh/internal/trace"
	"megh/internal/workload"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(100, 50, 1)
	if cfg.Gamma != 0.5 {
		t.Errorf("γ = %g, want 0.5 (§6.1)", cfg.Gamma)
	}
	if cfg.Temp0 != 3 {
		t.Errorf("Temp0 = %g, want 3 (§6.1)", cfg.Temp0)
	}
	if cfg.Epsilon != 0.01 {
		t.Errorf("ε = %g, want 0.01 (§6.1)", cfg.Epsilon)
	}
	if cfg.MaxMigrationsFrac != 0.02 {
		t.Errorf("migration cap = %g, want 0.02 (§6.1)", cfg.MaxMigrationsFrac)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.NumVMs = 0 },
		func(c *Config) { c.NumHosts = -1 },
		func(c *Config) { c.Gamma = 1 },
		func(c *Config) { c.Gamma = -0.1 },
		func(c *Config) { c.Temp0 = 0 },
		func(c *Config) { c.Epsilon = -1 },
		func(c *Config) { c.MaxMigrationsFrac = 0 },
		func(c *Config) { c.MaxMigrationsFrac = 1.5 },
		func(c *Config) { c.UnderloadThreshold = 2 },
		func(c *Config) { c.ExplorationRate = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig(10, 5, 1)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestUpdateMaintainsThetaInvariant checks the incremental θ maintenance:
// after arbitrary update sequences, θ must equal B·z exactly (the defining
// relation of Algorithm 1 line 11).
func TestUpdateMaintainsThetaInvariant(t *testing.T) {
	m, err := New(DefaultConfig(4, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for step := 0; step < 120; step++ {
		a := r.Intn(m.d)
		b := r.Intn(m.d)
		c := r.Float64() * 5
		m.update(a, b, c)
		want := m.b.MulVec(cellVector(m, m.b.Z))
		for i := 0; i < m.d; i++ {
			if diff := math.Abs(m.b.Theta(i) - want.Get(i)); diff > 1e-6 {
				t.Fatalf("step %d: θ[%d] = %g, B·z = %g (|Δ| = %g)",
					step, i, m.b.Theta(i), want.Get(i), diff)
			}
		}
	}
}

// TestUpdateMatchesDenseLSTD drives Megh's update and an explicit dense
// T-accumulation in parallel and verifies B = T⁻¹ and θ = T⁻¹·z.
func TestUpdateMatchesDenseLSTD(t *testing.T) {
	cfg := DefaultConfig(3, 3, 1)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := m.d
	tm := sparse.NewDenseIdentity(d, float64(d))
	zd := make([]float64, d)
	r := rand.New(rand.NewSource(4))
	for step := 0; step < 60; step++ {
		a, b := r.Intn(d), r.Intn(d)
		c := r.Float64()
		u := make([]float64, d)
		u[a] = 1
		v := make([]float64, d)
		v[a] += 1
		v[b] -= cfg.Gamma
		m.update(a, b, c)
		tm.AddOuter(1, u, v)
		zd[a] += c
	}
	inv, err := tm.Invert()
	if err != nil {
		t.Fatal(err)
	}
	wantTheta := inv.MulVec(zd)
	for i := 0; i < d; i++ {
		if diff := math.Abs(m.b.Theta(i) - wantTheta[i]); diff > 1e-6 {
			t.Fatalf("θ[%d] = %g, dense LSTD = %g", i, m.b.Theta(i), wantTheta[i])
		}
		for j := 0; j < d; j++ {
			if diff := math.Abs(m.b.Get(i, j) - inv.Get(i, j)); diff > 1e-6 {
				t.Fatalf("B[%d,%d] = %g, dense T⁻¹ = %g", i, j, m.b.Get(i, j), inv.Get(i, j))
			}
		}
	}
}

// Property: θ = B·z holds for random update sequences of any shape.
func TestQuickThetaInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := New(DefaultConfig(1+r.Intn(4), 1+r.Intn(4), seed))
		if err != nil {
			return false
		}
		for step := 0; step < 30; step++ {
			m.update(r.Intn(m.d), r.Intn(m.d), r.Float64()*3)
		}
		want := m.b.MulVec(cellVector(m, m.b.Z))
		for i := 0; i < m.d; i++ {
			if math.Abs(m.b.Theta(i)-want.Get(i)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTemperatureDecay(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap := tinySnapshot(t, 2, 2)
	t0 := m.Temperature()
	m.Decide(snap)
	want := t0 * math.Exp(-m.cfg.Epsilon)
	if math.Abs(m.Temperature()-want) > 1e-12 {
		t.Fatalf("temp after one step = %g, want %g", m.Temperature(), want)
	}
	// Decay must floor rather than reach zero.
	for i := 0; i < 10000; i++ {
		m.Decide(snap)
	}
	if m.Temperature() <= 0 {
		t.Fatal("temperature reached zero")
	}
}

// tinySnapshot builds a minimal world through the simulator to get a
// consistent snapshot: nVMs VMs at low load on nHosts hosts.
func tinySnapshot(t testing.TB, nVMs, nHosts int) *sim.Snapshot {
	t.Helper()
	return tinySnapshotN(t, nVMs, nHosts)
}

// tinySnapshotN is the sized-snapshot helper: a one-step simulated world of
// nVMs lightly-loaded VMs round-robined over nHosts hosts. Every VM runs at
// 10% utilisation, which leaves each host under the underload threshold and
// guarantees the learner sees consolidation candidates — tests that need
// Decide to actually produce migrations rely on that.
func tinySnapshotN(t testing.TB, nVMs, nHosts int) *sim.Snapshot {
	t.Helper()
	var snap *sim.Snapshot
	cfg := tinyConfig(t, nVMs, nHosts, 0.1)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&snapGrabber{out: &snap}); err != nil {
		t.Fatal(err)
	}
	return snap
}

// snapGrabber captures a deep-enough copy of the final snapshot.
type snapGrabber struct {
	out **sim.Snapshot
}

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
	c.HostHistory = make([][]float64, len(s.HostHistory))
	for i := range s.HostHistory {
		c.HostHistory[i] = append([]float64(nil), s.HostHistory[i]...)
	}
	*g.out = &c
	return nil
}

func tinyConfig(t testing.TB, nVMs, nHosts int, util float64) sim.Config {
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
		traces[i] = workload.Trace{util}
	}
	return sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces, Steps: 1,
		InitialPlacement: sim.PlacementRoundRobin,
	}
}

func TestDecidePanicsOnMismatchedWorld(t *testing.T) {
	m, err := New(DefaultConfig(5, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap := tinySnapshot(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on N×M mismatch")
		}
	}()
	m.Decide(snap)
}

func TestQInitiallyZero(t *testing.T) {
	m, err := New(DefaultConfig(3, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if q := m.Q(mdp.Action{VM: 2, Host: 3}); q != 0 {
		t.Fatalf("fresh Q = %g, want 0", q)
	}
	if m.QTableNNZ() != 0 {
		t.Fatalf("fresh Q-table NNZ = %d, want 0", m.QTableNNZ())
	}
}

// TestEndToEndLearningRun drives Megh through a real simulation and checks
// the structural properties the paper claims: migrations bounded by the 2%
// cap, no infeasible proposals, and a growing Q-table.
func TestEndToEndLearningRun(t *testing.T) {
	const nVMs, nHosts, steps = 20, 10, 120
	traces, err := workload.GeneratePlanetLab(func() workload.PlanetLabConfig {
		c := workload.DefaultPlanetLabConfig(3)
		c.Steps = steps
		return c
	}(), nVMs)
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := sim.PlanetLabHosts(nHosts)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := sim.PlanetLabVMs(nVMs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(nVMs, nHosts, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	maxPerStep := int(math.Ceil(0.02 * nVMs))
	for _, sm := range res.Steps {
		if sm.Migrations > maxPerStep {
			t.Fatalf("step %d migrated %d VMs, cap is %d", sm.Step, sm.Migrations, maxPerStep)
		}
		if sm.Rejected != 0 {
			t.Fatalf("step %d: Megh proposed %d infeasible migrations", sm.Step, sm.Rejected)
		}
	}
	hist := m.NNZHistory()
	if len(hist) != steps {
		t.Fatalf("NNZ history length %d, want %d", len(hist), steps)
	}
	if hist[steps-1] == 0 {
		t.Fatal("Q-table never grew over a burst-heavy run")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i] < hist[i-1] {
			t.Fatalf("Q-table shrank at step %d: %d → %d", i, hist[i-1], hist[i])
		}
	}
	if res.TotalMigrations() == 0 {
		t.Fatal("Megh never migrated despite overloads in the trace")
	}
}

func TestMeghRespondsToOverload(t *testing.T) {
	// One host saturated by two hot VMs, plenty of cold hosts. Within a
	// few steps Megh must move at least one VM off the overloaded host.
	const nVMs, nHosts = 2, 4
	lin, _ := power.NewLinear("test", 100, 200)
	hosts := make([]sim.HostSpec, nHosts)
	for i := range hosts {
		hosts[i] = sim.HostSpec{MIPS: 2000, RAMMB: 8192, BandwidthMbps: 1000, Power: lin}
	}
	vms := make([]sim.VMSpec, nVMs)
	traces := make([]workload.Trace, nVMs)
	for i := range vms {
		vms[i] = sim.VMSpec{MIPS: 1000, RAMMB: 512, BandwidthMbps: 100}
		tr := make(workload.Trace, 30)
		for k := range tr {
			tr[k] = 0.95
		}
		traces[i] = tr
	}
	s, err := sim.New(sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces,
		InitialPlacement: sim.PlacementFirstFit, // both VMs land on host 0 → 95% util
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(nVMs, nHosts, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations() == 0 {
		t.Fatal("Megh never addressed a persistently overloaded host")
	}
	// After resolution the overload should stop recurring for most steps.
	overloadedLate := 0
	for _, sm := range res.Steps[10:] {
		overloadedLate += sm.OverloadedHosts
	}
	if overloadedLate > 10 {
		t.Fatalf("overload persisted: %d overloaded host-steps after step 10", overloadedLate)
	}
}

func TestSampleDestinationGreedyAtLowTemperature(t *testing.T) {
	// Plant Q values so one destination is clearly cheapest; with a tiny
	// temperature the sampler must pick it (Algorithm 2's exploitation
	// limit).
	m, err := New(DefaultConfig(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.temp = 1e-9
	// VM 0's row: host 0 cost 5, host 1 cost 1 (min), host 2 cost 9.
	setTheta(t, m, mdp.Action{VM: 0, Host: 0}.Index(3), 5)
	setTheta(t, m, mdp.Action{VM: 0, Host: 1}.Index(3), 1)
	setTheta(t, m, mdp.Action{VM: 0, Host: 2}.Index(3), 9)
	snap := tinySnapshot(t, 2, 3)
	m.refreshHostAggregates(snap)
	for trial := 0; trial < 20; trial++ {
		dest, _ := m.sampleDestination(snap, candidate{vm: 0})
		if dest != 1 {
			t.Fatalf("trial %d: low-temp sample chose host %d, want greedy 1", trial, dest)
		}
	}
}

func TestSampleDestinationExploresAtHighTemperature(t *testing.T) {
	m, err := New(DefaultConfig(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.temp = 1e6
	setTheta(t, m, mdp.Action{VM: 0, Host: 1}.Index(3), 50)
	snap := tinySnapshot(t, 2, 3)
	seen := make(map[int]bool)
	m.refreshHostAggregates(snap)
	for trial := 0; trial < 200; trial++ {
		dest, _ := m.sampleDestination(snap, candidate{vm: 0})
		seen[dest] = true
	}
	// Hosts 0 and 1 are active (round-robin placement of 2 VMs on 3
	// hosts); host 2 sleeps and a non-overload candidate may not wake it.
	if len(seen) != 2 || !seen[0] || !seen[1] {
		t.Fatalf("high-temp sampling visited %v, want the two active hosts", seen)
	}
}

func TestSampleDestinationOverloadMayWakeSleepingHostAsFallback(t *testing.T) {
	// Give the VMs demands so large that only the sleeping host can
	// absorb a shed VM without itself crossing β.
	m, err := New(DefaultConfig(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.temp = 1e6
	snap := tinySnapshot(t, 2, 3)
	for j := range snap.VMMIPS {
		snap.VMMIPS[j] = 0.6 * snap.HostSpecs[0].MIPS
		snap.VMUtil[j] = snap.VMMIPS[j] / snap.VMSpecs[j].MIPS
	}
	m.refreshHostAggregates(snap)
	sawSleeping := false
	for trial := 0; trial < 100; trial++ {
		dest, _ := m.sampleDestination(snap, candidate{vm: 0, reason: trace.ReasonOverload})
		if dest == 2 {
			sawSleeping = true
		}
		if dest == 1 {
			t.Fatal("overload shed chose a destination that would itself overload")
		}
	}
	if !sawSleeping {
		t.Fatal("overload fallback never woke the sleeping host despite no active fit")
	}
}

func TestObserveBeforeAnyDecideIsHarmless(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(&sim.Feedback{StepCost: 3})
	snap := tinySnapshot(t, 2, 2)
	m.Decide(snap) // must not panic with cost but no pending actions
}

func BenchmarkMeghDecide(b *testing.B) {
	const nVMs, nHosts = 150, 100
	traces, err := workload.GeneratePlanetLab(func() workload.PlanetLabConfig {
		c := workload.DefaultPlanetLabConfig(3)
		c.Steps = 4
		return c
	}(), nVMs)
	if err != nil {
		b.Fatal(err)
	}
	hosts, _ := sim.PlanetLabHosts(nHosts)
	vms, _ := sim.PlanetLabVMs(nVMs, 2)
	s, err := sim.New(sim.Config{Hosts: hosts, VMs: vms, Traces: traces, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(DefaultConfig(nVMs, nHosts, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSampleDestinationAvoidsFailedHost plants Q values that make the
// failed host the greedy choice; the sampler must still never pick it.
func TestSampleDestinationAvoidsFailedHost(t *testing.T) {
	m, err := New(DefaultConfig(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.temp = 1e-9 // exploitation limit: always take the min-Q destination
	// VM 0 lives on host 0; host 1 (failed) gets the lowest cost.
	setTheta(t, m, mdp.Action{VM: 0, Host: 0}.Index(3), 5)
	setTheta(t, m, mdp.Action{VM: 0, Host: 1}.Index(3), -10)
	setTheta(t, m, mdp.Action{VM: 0, Host: 2}.Index(3), 1)
	snap := tinySnapshot(t, 2, 3)
	snap.HostFailed = []bool{false, true, false}
	m.refreshHostAggregates(snap)
	for trial := 0; trial < 50; trial++ {
		if dest, _ := m.sampleDestination(snap, candidate{vm: 0, reason: trace.ReasonOverload}); dest == 1 {
			t.Fatalf("trial %d: sampler chose the failed host", trial)
		}
	}
}

// TestMeghDoesNotProposeFailedHostsEndToEnd drives Megh through a run with
// a long outage on a capacious host; with failed hosts out of the scan every
// proposal stays feasible (pre-fix, proposals into the failed host were rejected by
// the simulator and silently burned the migration budget).
func TestMeghDoesNotProposeFailedHostsEndToEnd(t *testing.T) {
	const nVMs, nHosts, steps = 12, 6, 80
	traces, err := workload.GeneratePlanetLab(func() workload.PlanetLabConfig {
		c := workload.DefaultPlanetLabConfig(4)
		c.Steps = steps
		return c
	}(), nVMs)
	if err != nil {
		t.Fatal(err)
	}
	hosts, _ := sim.PlanetLabHosts(nHosts)
	vms, _ := sim.PlanetLabVMs(nVMs, 2)
	s, err := sim.New(sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces, Seed: 3,
		Failures: []sim.Failure{{Host: 1, From: 10, Until: 70}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(nVMs, nHosts, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range res.Steps {
		if sm.Rejected != 0 {
			t.Fatalf("step %d: %d proposals rejected (failed-host destinations?)",
				sm.Step, sm.Rejected)
		}
	}
}

// TestObserveReconcilesRejectedActions is the regression test for the
// pending/feedback reconciliation: a rejected migration must be dropped
// from the pending LSPI actions and receive no share of the interval cost.
func TestObserveReconcilesRejectedActions(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	aKept := mdp.Action{VM: 0, Host: 1}.Index(2)     // executed migration
	aRejected := mdp.Action{VM: 1, Host: 0}.Index(2) // rejected migration
	m.pending = []int{aKept, aRejected}
	m.pendingTotal = 2
	m.Observe(&sim.Feedback{
		Step:     0,
		StepCost: 5,
		Executed: []sim.Migration{{VM: 0, Dest: 1}},
		Rejected: []sim.Migration{{VM: 1, Dest: 0}},
	})
	if len(m.pending) != 1 || m.pending[0] != aKept {
		t.Fatalf("pending after reconcile = %v, want [%d]", m.pending, aKept)
	}
	// The next Decide completes the update: the rejected action accrues
	// nothing, and the survivor gets its pre-reconcile share — the cost was
	// generated while two actions were intended, so the survivor's slice is
	// stepCost/2, not the whole interval (the cost-share skew bug gave it
	// all 5).
	m.Decide(tinySnapshot(t, 2, 2))
	if got := m.b.Z(aRejected); got != 0 {
		t.Fatalf("rejected action accrued cost z=%g, want 0", got)
	}
	if got := m.b.Z(aKept); got != 2.5 {
		t.Fatalf("executed action accrued z=%g, want the pre-reconcile share 2.5", got)
	}
}

// TestInstrumentMirrorsLearnerInternals checks the obs wiring: after a
// Decide, the gauges track NNZ, resident bytes and temperature and the decide
// histogram has one observation; after a rejection-bearing Observe the
// counter moves.
func TestInstrumentMirrorsLearnerInternals(t *testing.T) {
	m, err := New(DefaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.Instrument(reg)
	snap := tinySnapshot(t, 2, 2)
	m.Decide(snap)
	if got := reg.Histogram("megh_decide_seconds", "", nil).Count(); got != 1 {
		t.Fatalf("decide histogram count = %d, want 1", got)
	}
	if got := reg.Gauge("megh_temperature", "", nil).Value(); got != m.Temperature() {
		t.Fatalf("temperature gauge = %g, want %g", got, m.Temperature())
	}
	if got := reg.Gauge("megh_qtable_nnz", "", nil).Value(); got != float64(m.QTableNNZ()) {
		t.Fatalf("nnz gauge = %g, want %d", got, m.QTableNNZ())
	}
	if got := reg.Gauge("megh_qtable_resident_bytes", "", nil).Value(); got <= 0 || got != float64(m.QTableResidentBytes()) {
		t.Fatalf("resident-bytes gauge = %g, want %d", got, m.QTableResidentBytes())
	}
	// z is part of what the learner holds: a z cell alone — B and θ
	// untouched — numbers the first record, which must show (z used to be
	// left out, and held MBs on a months-old session).
	before := reg.Gauge("megh_qtable_resident_bytes", "", nil).Value()
	m.b.AddZ(mdp.Action{VM: 1, Host: 1}.Index(2), 1.5)
	m.metrics.publish(m)
	if got := reg.Gauge("megh_qtable_resident_bytes", "", nil).Value(); got <= before {
		t.Fatalf("resident-bytes gauge = %g after z alone grew, was %g", got, before)
	}
	m.pending, m.pendingTotal = []int{mdp.Action{VM: 1, Host: 0}.Index(2)}, 1
	m.Observe(&sim.Feedback{StepCost: 1, Rejected: []sim.Migration{{VM: 1, Dest: 0}}})
	if got := reg.Counter("megh_actions_rejected_total", "", nil).Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}
