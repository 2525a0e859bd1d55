package sim

import (
	"math"
	"testing"

	"megh/internal/cost"
	"megh/internal/obs"
	"megh/internal/power"
	"megh/internal/workload"
)

// nopPolicy never migrates.
type nopPolicy struct{}

func (nopPolicy) Name() string                 { return "nop" }
func (nopPolicy) Decide(*Snapshot) []Migration { return nil }

// scriptPolicy replays a fixed schedule of migrations keyed by step and
// records the feedback it receives. Feedback is the simulator's scratch,
// valid only during Observe, so it keeps copies.
type scriptPolicy struct {
	script   map[int][]Migration
	feedback []*Feedback
}

func (s *scriptPolicy) Name() string { return "script" }

func (s *scriptPolicy) Decide(snap *Snapshot) []Migration {
	return s.script[snap.Step]
}

func (s *scriptPolicy) Observe(fb *Feedback) {
	c := *fb
	c.Executed = append([]Migration(nil), fb.Executed...)
	c.Rejected = append([]Migration(nil), fb.Rejected...)
	s.feedback = append(s.feedback, &c)
}

var (
	_ Policy           = nopPolicy{}
	_ Policy           = (*scriptPolicy)(nil)
	_ FeedbackReceiver = (*scriptPolicy)(nil)
)

// testConfig builds a tiny deterministic world: 3 hosts, 2 VMs, flat traces.
func testConfig(t *testing.T, traces []workload.Trace) Config {
	t.Helper()
	lin, err := power.NewLinear("test", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	host := HostSpec{MIPS: 1000, RAMMB: 4096, BandwidthMbps: 1000, Power: lin}
	vm := VMSpec{MIPS: 1000, RAMMB: 1024, BandwidthMbps: 100}
	return Config{
		Hosts:            []HostSpec{host, host, host},
		VMs:              []VMSpec{vm, vm},
		Traces:           traces,
		Steps:            len(traces[0]),
		InitialPlacement: PlacementRoundRobin,
	}
}

func TestConfigValidation(t *testing.T) {
	lin, _ := power.NewLinear("test", 100, 200)
	host := HostSpec{MIPS: 1000, RAMMB: 4096, BandwidthMbps: 1000, Power: lin}
	vm := VMSpec{MIPS: 1000, RAMMB: 1024, BandwidthMbps: 100}
	tr := workload.Trace{0.5}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no hosts", Config{VMs: []VMSpec{vm}, Traces: []workload.Trace{tr}}},
		{"no vms", Config{Hosts: []HostSpec{host}}},
		{"trace mismatch", Config{Hosts: []HostSpec{host}, VMs: []VMSpec{vm}}},
		{"bad host", Config{Hosts: []HostSpec{{}}, VMs: []VMSpec{vm}, Traces: []workload.Trace{tr}}},
		{"bad vm", Config{Hosts: []HostSpec{host}, VMs: []VMSpec{{}}, Traces: []workload.Trace{tr}}},
		{"bad overload", Config{Hosts: []HostSpec{host}, VMs: []VMSpec{vm},
			Traces: []workload.Trace{tr}, OverloadThreshold: 1.5}},
		{"negative history", Config{Hosts: []HostSpec{host}, VMs: []VMSpec{vm},
			Traces: []workload.Trace{tr}, HistoryLen: -1}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := testConfig(t, []workload.Trace{{0.5}, {0.5}})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Config()
	if got.StepSeconds != 300 {
		t.Errorf("default τ = %g, want 300", got.StepSeconds)
	}
	if got.OverloadThreshold != 0.70 {
		t.Errorf("default β = %g, want 0.70 (paper §6.1)", got.OverloadThreshold)
	}
	if got.Cost != cost.Default() {
		t.Error("default cost params not applied")
	}
	if got.HistoryLen != 12 {
		t.Errorf("default history = %d, want 12", got.HistoryLen)
	}
}

func TestRunNilPolicy(t *testing.T) {
	s, err := New(testConfig(t, []workload.Trace{{0.5}, {0.5}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("expected error for nil policy")
	}
}

func TestEnergyAccountingFlatLoad(t *testing.T) {
	// Two VMs at 50% on separate hosts (round-robin): each host at
	// 500/1000 = 50% → 150 W on the linear model; third host asleep.
	traces := []workload.Trace{{0.5, 0.5}, {0.5, 0.5}}
	cfg := testConfig(t, traces)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	wantPerStep := cost.Default().EnergyCost(300, 300) // 2 hosts × 150 W
	for _, m := range res.Steps {
		if math.Abs(m.EnergyCost-wantPerStep) > 1e-12 {
			t.Fatalf("step %d energy = %g, want %g", m.Step, m.EnergyCost, wantPerStep)
		}
		if m.SLACost != 0 {
			t.Fatalf("unexpected SLA cost %g with no overload/migrations", m.SLACost)
		}
		if m.ActiveHosts != 2 {
			t.Fatalf("active hosts = %d, want 2", m.ActiveHosts)
		}
	}
	if res.TotalMigrations() != 0 {
		t.Fatal("nop policy migrated")
	}
}

func TestSleepingHostsDrawNoPower(t *testing.T) {
	// Both VMs idle at 0%: hosts are active (VMs present) but the third
	// host must cost nothing.
	traces := []workload.Trace{{0.0}, {0.0}}
	cfg := testConfig(t, traces)
	s, _ := New(cfg)
	res, err := s.Run(nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Two active hosts at idle power 100 W each.
	want := cost.Default().EnergyCost(200, 300)
	if math.Abs(res.TotalEnergyCost()-want) > 1e-12 {
		t.Fatalf("energy = %g, want %g (sleeping host must be free)",
			res.TotalEnergyCost(), want)
	}
}

func TestMigrationExecutesAndCharges(t *testing.T) {
	// Step 0: move VM 1 onto host 0. Both at 30% → host 0 at 60% after.
	traces := []workload.Trace{{0.3, 0.3}, {0.3, 0.3}}
	cfg := testConfig(t, traces)
	p := &scriptPolicy{script: map[int][]Migration{0: {{VM: 1, Dest: 0}}}}
	s, _ := New(cfg)
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations() != 1 {
		t.Fatalf("migrations = %d, want 1", res.TotalMigrations())
	}
	if res.Steps[0].ActiveHosts != 1 {
		t.Fatalf("active hosts after consolidation = %d, want 1", res.Steps[0].ActiveHosts)
	}
	// Migration downtime: 1024 MiB × 8 / 1000 Mbps = 8.192 s × factor 0.5.
	wantDowntime := 1024 * 8 / 1000.0 * cost.Default().MigrationDowntimeFactor
	totalReq := float64(len(traces[0])) * 300
	wantFrac := wantDowntime / totalReq
	if math.Abs(res.VMDowntimeFrac[1]-wantFrac) > 1e-12 {
		t.Fatalf("VM1 downtime frac = %g, want %g", res.VMDowntimeFrac[1], wantFrac)
	}
	if res.VMDowntimeFrac[0] != 0 {
		t.Fatal("VM0 should have no downtime")
	}
	// The migration interval carries 0.8192 s / 300 s ≈ 0.27% downtime →
	// tier-2 refund for that interval only; the second interval is clean.
	wantSLA := cost.Default().SLACost(wantDowntime/300, 300)
	if math.Abs(res.TotalSLACost()-wantSLA) > 1e-9 {
		t.Fatalf("SLA cost = %g, want %g (charged in the migration interval only)",
			res.TotalSLACost(), wantSLA)
	}
	if res.Steps[1].SLACost != 0 {
		t.Fatal("violation-free interval must cost nothing")
	}
}

func TestStayMigrationIsFreeNoOp(t *testing.T) {
	traces := []workload.Trace{{0.3}, {0.3}}
	cfg := testConfig(t, traces)
	// VM 0 starts on host 0 (round-robin); "migrate" it to host 0.
	p := &scriptPolicy{script: map[int][]Migration{0: {{VM: 0, Dest: 0}}}}
	s, _ := New(cfg)
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations() != 0 {
		t.Fatal("stay action was counted as a migration")
	}
	if res.Steps[0].Rejected != 0 {
		t.Fatal("stay action was counted as rejected")
	}
	if res.VMDowntimeFrac[0] != 0 {
		t.Fatal("stay action charged downtime")
	}
}

func TestInfeasibleMigrationRejected(t *testing.T) {
	// Host RAM 4096, VM RAM 1024: five VMs cannot share one host if four
	// fill it. Build 2 hosts, 5 VMs round-robin, then try to move all to
	// host 0.
	lin, _ := power.NewLinear("test", 100, 200)
	host := HostSpec{MIPS: 10000, RAMMB: 4096, BandwidthMbps: 1000, Power: lin}
	vm := VMSpec{MIPS: 100, RAMMB: 1024, BandwidthMbps: 100}
	traces := make([]workload.Trace, 5)
	for i := range traces {
		traces[i] = workload.Trace{0.1}
	}
	cfg := Config{
		Hosts:            []HostSpec{host, host},
		VMs:              []VMSpec{vm, vm, vm, vm, vm},
		Traces:           traces,
		Steps:            1,
		InitialPlacement: PlacementRoundRobin,
	}
	var moves []Migration
	for j := 0; j < 5; j++ {
		moves = append(moves, Migration{VM: j, Dest: 0})
	}
	p := &scriptPolicy{script: map[int][]Migration{0: moves}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Host 0 starts with VMs 0,2,4 (RR). VM 1 fits (4th), VM 3 rejected.
	if res.Steps[0].Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", res.Steps[0].Migrations)
	}
	if res.Steps[0].Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", res.Steps[0].Rejected)
	}
}

func TestDuplicateAndOutOfRangeMigrationsRejected(t *testing.T) {
	traces := []workload.Trace{{0.3}, {0.3}}
	cfg := testConfig(t, traces)
	p := &scriptPolicy{script: map[int][]Migration{0: {
		{VM: 0, Dest: 2},
		{VM: 0, Dest: 1},  // duplicate VM in same step
		{VM: 9, Dest: 0},  // bad VM
		{VM: 1, Dest: -1}, // bad host
	}}}
	s, _ := New(cfg)
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].Migrations != 1 || res.Steps[0].Rejected != 3 {
		t.Fatalf("migrations/rejected = %d/%d, want 1/3",
			res.Steps[0].Migrations, res.Steps[0].Rejected)
	}
}

func TestOverloadAccruesDowntimeAndSLACost(t *testing.T) {
	// One VM demanding 90% of a host that it fully owns → host util 0.9 >
	// β = 0.7 → downtime accrues every step.
	lin, _ := power.NewLinear("test", 100, 200)
	cfg := Config{
		Hosts:            []HostSpec{{MIPS: 1000, RAMMB: 4096, BandwidthMbps: 1000, Power: lin}},
		VMs:              []VMSpec{{MIPS: 1000, RAMMB: 1024, BandwidthMbps: 100}},
		Traces:           []workload.Trace{{0.9, 0.9, 0.9}},
		Steps:            3,
		InitialPlacement: PlacementFirstFit,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Severity = (0.9 − 0.7)/(1 − 0.7) = 2/3 of each interval.
	if want := 2.0 / 3.0; math.Abs(res.VMDowntimeFrac[0]-want) > 1e-12 {
		t.Fatalf("downtime frac = %g, want %g (severity-scaled overload)",
			res.VMDowntimeFrac[0], want)
	}
	for _, m := range res.Steps {
		if m.OverloadedHosts != 1 {
			t.Fatalf("step %d overloaded hosts = %d, want 1", m.Step, m.OverloadedHosts)
		}
		want := cost.Default().SLACost(1, 300)
		if math.Abs(m.SLACost-want) > 1e-12 {
			t.Fatalf("step %d SLA = %g, want %g", m.Step, m.SLACost, want)
		}
	}
}

func TestFeedbackDelivered(t *testing.T) {
	traces := []workload.Trace{{0.3, 0.3}, {0.3, 0.3}}
	cfg := testConfig(t, traces)
	p := &scriptPolicy{script: map[int][]Migration{0: {{VM: 1, Dest: 0}}}}
	s, _ := New(cfg)
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.feedback) != 2 {
		t.Fatalf("feedback count = %d, want 2", len(p.feedback))
	}
	fb := p.feedback[0]
	if len(fb.Executed) != 1 || fb.Executed[0] != (Migration{VM: 1, Dest: 0}) {
		t.Fatalf("feedback executed = %+v", fb.Executed)
	}
	if math.Abs(fb.StepCost-res.Steps[0].TotalCost()) > 1e-12 {
		t.Fatalf("feedback cost %g != step cost %g", fb.StepCost, res.Steps[0].TotalCost())
	}
	if fb.StepCost != fb.EnergyCost+fb.SLACost {
		t.Fatal("feedback cost decomposition inconsistent")
	}
}

func TestHostHistoryWindow(t *testing.T) {
	// Utilization ramps; the snapshot history must hold the last
	// HistoryLen pre-decision samples, oldest first.
	n := 20
	tr := make(workload.Trace, n)
	for i := range tr {
		tr[i] = float64(i) / float64(n)
	}
	cfg := testConfig(t, []workload.Trace{tr, tr})
	cfg.HistoryLen = 5
	var got [][]float64
	p := &probePolicy{onDecide: func(s *Snapshot) {
		if s.Step == n-1 {
			got = append(got, append([]float64(nil), s.HostHistory[0]...))
		}
	}}
	s, _ := New(cfg)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("probe fired %d times", len(got))
	}
	h := got[0]
	if len(h) != 5 {
		t.Fatalf("history length = %d, want 5", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1] {
			t.Fatalf("history not oldest-first on a rising ramp: %v", h)
		}
	}
	// Newest entry is the current pre-decision utilization of host 0
	// (VM 0 at (n-1)/n of 1000 MIPS on a 1000 MIPS host).
	want := float64(n-1) / float64(n)
	if math.Abs(h[4]-want) > 1e-12 {
		t.Fatalf("newest history = %g, want %g", h[4], want)
	}
}

// probePolicy runs a callback at each Decide without migrating.
type probePolicy struct {
	onDecide func(*Snapshot)
}

func (p *probePolicy) Name() string { return "probe" }
func (p *probePolicy) Decide(s *Snapshot) []Migration {
	if p.onDecide != nil {
		p.onDecide(s)
	}
	return nil
}

func TestInitialPlacementsFeasibleAndDeterministic(t *testing.T) {
	hosts, err := PlanetLabHosts(10)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := PlanetLabVMs(25, 3)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]workload.Trace, len(vms))
	for i := range traces {
		traces[i] = workload.Trace{0.1}
	}
	for _, placement := range []Placement{PlacementRandom, PlacementRoundRobin, PlacementFirstFit} {
		cfg := Config{
			Hosts: hosts, VMs: vms, Traces: traces, Steps: 1,
			InitialPlacement: placement, Seed: 42,
		}
		var first, second []int
		for rep := 0; rep < 2; rep++ {
			var placed []int
			p := &probePolicy{onDecide: func(s *Snapshot) {
				placed = append([]int(nil), s.VMHost...)
				// RAM feasibility.
				ram := make([]float64, s.NumHosts())
				for j, h := range s.VMHost {
					ram[h] += s.VMSpecs[j].RAMMB
				}
				for i := range ram {
					if ram[i] > s.HostSpecs[i].RAMMB {
						t.Fatalf("%v placement overfills host %d", placement, i)
					}
				}
			}}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(p); err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				first = placed
			} else {
				second = placed
			}
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%v placement not deterministic", placement)
			}
		}
	}
}

func TestPlacementImpossibleErrors(t *testing.T) {
	lin, _ := power.NewLinear("test", 100, 200)
	cfg := Config{
		Hosts:            []HostSpec{{MIPS: 1000, RAMMB: 512, BandwidthMbps: 1000, Power: lin}},
		VMs:              []VMSpec{{MIPS: 100, RAMMB: 1024, BandwidthMbps: 100}},
		Traces:           []workload.Trace{{0.1}},
		Steps:            1,
		InitialPlacement: PlacementFirstFit,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nopPolicy{}); err == nil {
		t.Fatal("expected placement error: VM larger than any host")
	}
}

func TestRunIsRepeatable(t *testing.T) {
	traces, err := workload.GeneratePlanetLab(func() workload.PlanetLabConfig {
		c := workload.DefaultPlanetLabConfig(5)
		c.Steps = 50
		return c
	}(), 8)
	if err != nil {
		t.Fatal(err)
	}
	hosts, _ := PlanetLabHosts(6)
	vms, _ := PlanetLabVMs(8, 1)
	cfg := Config{Hosts: hosts, VMs: vms, Traces: traces, Seed: 9}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Run(nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCost() != r2.TotalCost() || r1.TotalMigrations() != r2.TotalMigrations() {
		t.Fatal("two runs of the same config+policy differ")
	}
}

func TestSnapshotFitsOn(t *testing.T) {
	traces := []workload.Trace{{0.5}, {0.5}}
	cfg := testConfig(t, traces)
	p := &probePolicy{onDecide: func(s *Snapshot) {
		if !s.FitsOn(0, s.VMHost[0]) {
			t.Error("VM must always fit on its own host")
		}
		// Host 2 is empty: a 1000-MIPS demand of 500 fits.
		if !s.FitsOn(0, 2) {
			t.Error("VM should fit on the empty host")
		}
	}}
	s, _ := New(cfg)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMigrationSeconds(t *testing.T) {
	traces := []workload.Trace{{0.5}, {0.5}}
	cfg := testConfig(t, traces)
	p := &probePolicy{onDecide: func(s *Snapshot) {
		// 1024 MiB × 8 bits / 1000 Mbps = 8.192 s.
		if got := s.MigrationSeconds(0, 2); math.Abs(got-8.192) > 1e-9 {
			t.Errorf("MigrationSeconds = %g, want 8.192", got)
		}
	}}
	s, _ := New(cfg)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsAggregations(t *testing.T) {
	r := &Result{Steps: []StepMetrics{
		{EnergyCost: 1, SLACost: 2, Migrations: 3, ActiveHosts: 10, DecideSeconds: 0.5},
		{EnergyCost: 2, SLACost: 1, Migrations: 1, ActiveHosts: 20, DecideSeconds: 1.5},
	}}
	if r.TotalCost() != 6 || r.TotalEnergyCost() != 3 || r.TotalSLACost() != 3 {
		t.Fatal("cost aggregation wrong")
	}
	if r.TotalMigrations() != 4 {
		t.Fatal("migration aggregation wrong")
	}
	if r.MeanActiveHosts() != 15 || r.MeanDecideSeconds() != 1 {
		t.Fatal("mean aggregation wrong")
	}
	cm := r.CumulativeMigrations()
	if cm[0] != 3 || cm[1] != 4 {
		t.Fatalf("cumulative migrations = %v", cm)
	}
	pc := r.PerStepCosts()
	if pc[0] != 3 || pc[1] != 3 {
		t.Fatalf("per-step costs = %v", pc)
	}
	empty := &Result{}
	if empty.MeanActiveHosts() != 0 || empty.MeanDecideSeconds() != 0 {
		t.Fatal("empty result means should be 0")
	}
}

func TestFleetConstructors(t *testing.T) {
	hosts, err := PlanetLabHosts(4)
	if err != nil {
		t.Fatal(err)
	}
	if hosts[0].MIPS != g4MIPS || hosts[1].MIPS != g5MIPS {
		t.Fatal("host type mix wrong")
	}
	if hosts[0].Power.Name() == hosts[1].Power.Name() {
		t.Fatal("both host types share a power model")
	}
	if _, err := PlanetLabHosts(0); err == nil {
		t.Fatal("expected error for zero hosts")
	}
	vms, err := PlanetLabVMs(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vms {
		if v.Validate() != nil {
			t.Fatalf("invalid VM spec %+v", v)
		}
	}
	if _, err := PlanetLabVMs(-1, 0); err == nil {
		t.Fatal("expected error for negative VM count")
	}
	g, err := GoogleHosts(2)
	if err != nil {
		t.Fatal(err)
	}
	if g[0].RAMMB <= hosts[0].RAMMB {
		t.Fatal("Google hosts should have more RAM")
	}
	if _, err := GoogleVMs(5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementString(t *testing.T) {
	if PlacementRandom.String() != "random" ||
		PlacementRoundRobin.String() != "round-robin" ||
		PlacementFirstFit.String() != "first-fit" {
		t.Fatal("Placement String() wrong")
	}
	if Placement(99).String() == "" {
		t.Fatal("unknown placement should still render")
	}
}

// TestMetricsFeed checks the obs wiring: a metered run lands per-step
// decide latencies, migration/rejection counts, and overload host-steps in
// the registry, labelled by policy name.
func TestMetricsFeed(t *testing.T) {
	traces := []workload.Trace{{0.9, 0.9, 0.9}, {0.9, 0.9, 0.9}}
	cfg := testConfig(t, traces)
	cfg.InitialPlacement = PlacementFirstFit // both hot VMs on host 0 → overload
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Step 0: move VM 1 to host 1 (executed) and propose an out-of-range
	// destination (rejected).
	p := &scriptPolicy{script: map[int][]Migration{
		0: {{VM: 1, Dest: 1}, {VM: 0, Dest: 99}},
	}}
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	l := obs.Labels{"policy": "script"}
	if got := reg.Counter("megh_sim_steps_total", "", l).Value(); got != 3 {
		t.Fatalf("megh_megh_sim_steps_total = %d, want 3", got)
	}
	if got := reg.Histogram("megh_sim_decide_seconds", "", l).Count(); got != 3 {
		t.Fatalf("megh_megh_sim_decide_seconds count = %d, want 3", got)
	}
	if got := reg.Counter("megh_sim_migrations_total", "", l).Value(); got != int64(res.TotalMigrations()) {
		t.Fatalf("megh_megh_sim_migrations_total = %d, want %d", got, res.TotalMigrations())
	}
	if got := reg.Counter("megh_sim_rejections_total", "", l).Value(); got != 1 {
		t.Fatalf("megh_megh_sim_rejections_total = %d, want 1", got)
	}
	var wantOverloaded int64
	for _, m := range res.Steps {
		wantOverloaded += int64(m.OverloadedHosts)
	}
	if wantOverloaded == 0 {
		t.Fatal("scenario never overloaded a host; test world broken")
	}
	if got := reg.Counter("megh_sim_overloaded_host_steps_total", "", l).Value(); got != wantOverloaded {
		t.Fatalf("megh_megh_sim_overloaded_host_steps_total = %d, want %d", got, wantOverloaded)
	}
	last := res.Steps[len(res.Steps)-1]
	if got := reg.Gauge("megh_sim_active_hosts", "", l).Value(); got != float64(last.ActiveHosts) {
		t.Fatalf("megh_megh_sim_active_hosts = %g, want %d", got, last.ActiveHosts)
	}
	// An unmetered run must keep working (nil feed).
	cfg.Metrics = nil
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(nopPolicy{}); err != nil {
		t.Fatal(err)
	}
}
