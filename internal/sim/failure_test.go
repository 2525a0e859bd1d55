package sim

import (
	"math"
	"testing"

	"megh/internal/obs"
	"megh/internal/power"
	"megh/internal/workload"
)

func failureConfig(t *testing.T, failures []Failure) Config {
	t.Helper()
	cfg := testConfig(t, []workload.Trace{{0.3, 0.3, 0.3, 0.3}, {0.3, 0.3, 0.3, 0.3}})
	cfg.Failures = failures
	return cfg
}

func TestFailureValidation(t *testing.T) {
	bad := []Failure{
		{Host: -1, From: 0, Until: 1},
		{Host: 9, From: 0, Until: 1},
		{Host: 0, From: -1, Until: 1},
		{Host: 0, From: 2, Until: 2},
		{Host: 0, From: 3, Until: 1},
	}
	for i, f := range bad {
		cfg := failureConfig(t, []Failure{f})
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, f)
		}
	}
}

func TestFailedHostFullyDownsItsVMs(t *testing.T) {
	// VM 0 sits on host 0 (round-robin); host 0 fails for steps 1–2.
	cfg := failureConfig(t, []Failure{{Host: 0, From: 1, Until: 3}})
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Two failed intervals of full downtime out of four.
	if want := 2.0 / 4.0; math.Abs(res.VMDowntimeFrac[0]-want) > 1e-12 {
		t.Fatalf("VM0 downtime frac = %g, want %g", res.VMDowntimeFrac[0], want)
	}
	if res.VMDowntimeFrac[1] != 0 {
		t.Fatal("VM on healthy host accrued downtime")
	}
	for _, m := range res.Steps {
		wantFailed := 0
		if m.Step >= 1 && m.Step < 3 {
			wantFailed = 1
		}
		if m.FailedHosts != wantFailed {
			t.Fatalf("step %d: FailedHosts = %d, want %d", m.Step, m.FailedHosts, wantFailed)
		}
	}
	// One host down for two steps is two failed host-steps.
	if got := reg.Counter("megh_sim_failed_host_steps_total", "", obs.Labels{"policy": "nop"}).Value(); got != 2 {
		t.Fatalf("megh_sim_failed_host_steps_total = %d, want 2", got)
	}
}

func TestFailedHostDrawsNoPower(t *testing.T) {
	cfg := failureConfig(t, []Failure{{Host: 0, From: 0, Until: 4}})
	s, _ := New(cfg)
	res, err := s.Run(nopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Only host 1 (the healthy one with VM 1 at 30%) draws power:
	// linear model 100 + 100·0.3 = 130 W.
	wantPerStep := s.Config().Cost.EnergyCost(130, 300)
	for _, m := range res.Steps {
		if math.Abs(m.EnergyCost-wantPerStep) > 1e-12 {
			t.Fatalf("step %d energy = %g, want %g (failed host must be off)",
				m.Step, m.EnergyCost, wantPerStep)
		}
	}
}

func TestMigrationToFailedHostRejected(t *testing.T) {
	cfg := failureConfig(t, []Failure{{Host: 2, From: 0, Until: 4}})
	p := &scriptPolicy{script: map[int][]Migration{0: {{VM: 0, Dest: 2}}}}
	s, _ := New(cfg)
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].Migrations != 0 || res.Steps[0].Rejected != 1 {
		t.Fatalf("migration to failed host: executed %d rejected %d, want 0/1",
			res.Steps[0].Migrations, res.Steps[0].Rejected)
	}
}

func TestEvacuationFromFailedHostWorks(t *testing.T) {
	// The failed host's VM can be moved away; downtime stops accruing.
	cfg := failureConfig(t, []Failure{{Host: 0, From: 0, Until: 4}})
	p := &scriptPolicy{script: map[int][]Migration{1: {{VM: 0, Dest: 2}}}}
	s, _ := New(cfg)
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[1].Migrations != 1 {
		t.Fatal("evacuation migration did not execute")
	}
	// Downtime: full steps 0 and 1 (migration executes within step 1 but
	// the host was down at its start — we charge the migration downtime
	// plus nothing further), then clean steps 2–3.
	frac := res.VMDowntimeFrac[0]
	if frac >= 0.75 {
		t.Fatalf("downtime frac = %g: evacuation did not stop the bleeding", frac)
	}
	if frac <= 0 {
		t.Fatal("failed intervals should have charged downtime")
	}
}

// TestPoliciesEvacuateFailedHost checks that both Megh-style overload
// handling and MMT react to an injected failure without bespoke code,
// because HostOverloaded reports failed hosts.
func TestSnapshotTreatsFailureAsOverload(t *testing.T) {
	cfg := failureConfig(t, []Failure{{Host: 0, From: 0, Until: 4}})
	var sawOverloaded, sawFailed, fitsFailed bool
	p := &probePolicy{onDecide: func(s *Snapshot) {
		if s.HostOverloaded(0) {
			sawOverloaded = true
		}
		if len(s.HostFailed) > 0 && s.HostFailed[0] {
			sawFailed = true
		}
		if s.FitsOn(1, 0) {
			fitsFailed = true
		}
	}}
	s, _ := New(cfg)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	if !sawOverloaded {
		t.Error("failed host not reported as overloaded")
	}
	if !sawFailed {
		t.Error("HostFailed not surfaced in snapshot")
	}
	if fitsFailed {
		t.Error("FitsOn accepted a failed destination")
	}
}

// TestSnapshotHostFailedNilWithoutOutage pins Snapshot.HostFailed's nil
// form: a step with no outage hands the policy nil, a step with one the
// flags.
func TestSnapshotHostFailedNilWithoutOutage(t *testing.T) {
	cfg := failureConfig(t, []Failure{{Host: 0, From: 1, Until: 3}})
	p := &probePolicy{onDecide: func(s *Snapshot) {
		if outage := s.Step >= 1 && s.Step < 3; outage != (s.HostFailed != nil) {
			t.Errorf("step %d: HostFailed %v", s.Step, s.HostFailed)
		}
	}}
	s, _ := New(cfg)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
}

// constantMigModel doubles as the custom-model plumbing test.
type constantMigModel struct{ sec float64 }

func (c constantMigModel) MigrationSeconds(*Snapshot, int, int) float64 { return c.sec }

var _ MigrationTimeModel = constantMigModel{}

func TestCustomMigrationModelUsed(t *testing.T) {
	lin, _ := power.NewLinear("test", 100, 200)
	host := HostSpec{MIPS: 1000, RAMMB: 4096, BandwidthMbps: 1000, Power: lin}
	vm := VMSpec{MIPS: 1000, RAMMB: 1024, BandwidthMbps: 100}
	cfg := Config{
		Hosts:            []HostSpec{host, host},
		VMs:              []VMSpec{vm},
		Traces:           []workload.Trace{{0.3}},
		Steps:            1,
		InitialPlacement: PlacementRoundRobin,
		Migration:        constantMigModel{sec: 42},
	}
	p := &scriptPolicy{script: map[int][]Migration{0: {{VM: 0, Dest: 1}}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 42 * s.Config().Cost.MigrationDowntimeFactor / 300
	if math.Abs(res.VMDowntimeFrac[0]-want) > 1e-12 {
		t.Fatalf("downtime frac = %g, want %g from the custom model", res.VMDowntimeFrac[0], want)
	}
}

func TestVMHistoryExposed(t *testing.T) {
	n := 20
	tr := make(workload.Trace, n)
	for i := range tr {
		tr[i] = float64(i) / float64(n)
	}
	cfg := testConfig(t, []workload.Trace{tr, tr})
	cfg.HistoryLen = 4
	var got []float64
	p := &probePolicy{onDecide: func(s *Snapshot) {
		if s.Step == n-1 {
			got = append([]float64(nil), s.VMHistory[0]...)
		}
	}}
	s, _ := New(cfg)
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("VM history length = %d, want 4", len(got))
	}
	want := []float64{16.0 / 20, 17.0 / 20, 18.0 / 20, 19.0 / 20}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("VMHistory[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}
