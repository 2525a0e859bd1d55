package invariant

import (
	"math"
	"strings"
	"testing"

	"megh/internal/core"
	"megh/internal/power"
	"megh/internal/sim"
	"megh/internal/workload"
)

// worldConfig builds a small heterogeneous world with deterministic,
// varying traces — busy enough that a run exercises migrations, overloads,
// host sleeps and wakes.
func worldConfig(t testing.TB, nVMs, nHosts, steps int, seed int64) sim.Config {
	t.Helper()
	small, err := power.NewLinear("small", 90, 180)
	if err != nil {
		t.Fatal(err)
	}
	big, err := power.NewLinear("big", 120, 260)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]sim.HostSpec, nHosts)
	for i := range hosts {
		if i%2 == 0 {
			hosts[i] = sim.HostSpec{MIPS: 4000, RAMMB: 8192, BandwidthMbps: 1000, Power: small}
		} else {
			hosts[i] = sim.HostSpec{MIPS: 6000, RAMMB: 12288, BandwidthMbps: 1000, Power: big}
		}
	}
	vms := make([]sim.VMSpec, nVMs)
	traces := make([]workload.Trace, nVMs)
	for j := range vms {
		vms[j] = sim.VMSpec{MIPS: 1500, RAMMB: 1024, BandwidthMbps: 100}
		tr := make([]float64, steps)
		for s := range tr {
			// Deterministic sawtooth, phase-shifted per VM, spanning idle
			// to saturated so overload and underload both occur.
			tr[s] = float64((j*7+s*3)%11) / 10
		}
		traces[j] = tr
	}
	return sim.Config{
		Hosts: hosts, VMs: vms, Traces: traces,
		Steps: steps, Seed: seed,
		InitialPlacement: sim.PlacementRoundRobin,
	}
}

// TestSimCheckerCleanRun: a full simulated run under the Megh policy must
// produce zero violations, and the checker must actually have run.
func TestSimCheckerCleanRun(t *testing.T) {
	const nVMs, nHosts, steps = 12, 6, 80
	cfg := worldConfig(t, nVMs, nHosts, steps, 3)
	chk := NewSimChecker()
	cfg.Checker = chk
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.DefaultConfig(nVMs, nHosts, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(m); err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	if chk.Steps != steps {
		t.Fatalf("checker validated %d steps, want %d", chk.Steps, steps)
	}
}

// baseCheck builds a minimal self-consistent 2×2 world the violation tests
// mutate one law at a time.
func baseCheck() *sim.StepCheck {
	snap := &sim.Snapshot{
		Step:              4,
		StepSeconds:       300,
		OverloadThreshold: 0.7,
		VMHost:            []int{0, 1},
		VMUtil:            []float64{0.5, 0.5},
		VMMIPS:            []float64{500, 500},
		VMSpecs:           []sim.VMSpec{{MIPS: 1000, RAMMB: 1024}, {MIPS: 1000, RAMMB: 1024}},
		HostUtil:          []float64{0.125, 0.125},
		HostVMs:           [][]int{{0}, {1}},
		HostSpecs:         []sim.HostSpec{{MIPS: 4000, RAMMB: 8192}, {MIPS: 4000, RAMMB: 8192}},
		HostFailed:        []bool{false, false},
	}
	fb := &sim.Feedback{Step: 4, EnergyCost: 2, SLACost: 1, ResourceCost: 0.5, StepCost: 3.5}
	return &sim.StepCheck{
		Step:     4,
		Snapshot: snap,
		Feedback: fb,
		Metrics: sim.StepMetrics{
			Step: 4, EnergyCost: 2, SLACost: 1, ResourceCost: 0.5,
			ActiveHosts: 2,
		},
		PrevVMHost: []int{0, 1},
		PrevActive: []bool{true, true},
	}
}

func TestSimCheckerAcceptsConsistentState(t *testing.T) {
	if err := NewSimChecker().CheckStep(baseCheck()); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
}

// TestSimCheckerCatchesViolations breaks each conservation law in turn and
// asserts the checker rejects it with a recognisable complaint.
func TestSimCheckerCatchesViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*sim.StepCheck)
		errLike string
	}{
		{"vm-in-two-host-lists", func(c *sim.StepCheck) {
			c.Snapshot.HostVMs[1] = []int{1, 1}
		}, "host lists"},
		{"vm-host-list-disagrees", func(c *sim.StepCheck) {
			c.Snapshot.VMHost[1] = 0
		}, "VMHost says"},
		{"utilization-not-sum-of-vms", func(c *sim.StepCheck) {
			c.Snapshot.HostUtil[0] = 0.2
		}, "sum of its VMs"},
		{"utilization-one-ulp-off", func(c *sim.StepCheck) {
			c.Snapshot.HostUtil[0] = math.Nextafter(0.125, 1)
		}, "sum of its VMs"},
		{"ram-overcommitted", func(c *sim.StepCheck) {
			c.Snapshot.VMSpecs[0].RAMMB = 1 << 20
		}, "RAM overcommitted"},
		{"executed-but-not-moved", func(c *sim.StepCheck) {
			c.Feedback.Executed = []sim.Migration{{VM: 0, Dest: 1}}
			c.Metrics.Migrations = 1
		}, "sits on"},
		{"moved-without-migration", func(c *sim.StepCheck) {
			c.PrevVMHost[0] = 1
		}, "without an executed migration"},
		{"migrated-to-failed-host", func(c *sim.StepCheck) {
			c.Snapshot.HostFailed[1] = true
			c.Snapshot.VMHost[0] = 1
			c.Snapshot.HostVMs[0] = nil
			c.Snapshot.HostVMs[1] = []int{1, 0}
			c.Snapshot.HostUtil[0] = 0
			c.Snapshot.HostUtil[1] = 0.25
			c.Feedback.Executed = []sim.Migration{{VM: 0, Dest: 1}}
			c.Metrics.Migrations = 1
			c.Metrics.ActiveHosts = 1
		}, "failed host"},
		{"activity-flip-without-migration", func(c *sim.StepCheck) {
			c.PrevActive[0] = false
		}, "changed activity"},
		{"migration-count-mismatch", func(c *sim.StepCheck) {
			c.Metrics.Migrations = 3
		}, "metrics count"},
		{"step-cost-not-sum", func(c *sim.StepCheck) {
			c.Feedback.StepCost = 9.75
		}, "≠ energy"},
		{"negative-energy", func(c *sim.StepCheck) {
			c.Feedback.EnergyCost = -1
			c.Metrics.EnergyCost = -1
			c.Feedback.StepCost = 0.5
		}, "invalid"},
		{"metrics-cost-diverges", func(c *sim.StepCheck) {
			c.Metrics.SLACost = 2
		}, "diverges"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := baseCheck()
			tc.mutate(c)
			err := NewSimChecker().CheckStep(c)
			if err == nil {
				t.Fatal("violation not detected")
			}
			if !strings.Contains(err.Error(), tc.errLike) {
				t.Fatalf("error %q does not mention %q", err, tc.errLike)
			}
		})
	}
}

// TestLSPIHealthCleanRun drives a learner through a busy world with the
// probe attached: the dense-oracle checks must pass throughout, and the
// auto-probe must actually have fired.
func TestLSPIHealthCleanRun(t *testing.T) {
	const nVMs, nHosts, steps = 6, 3, 120
	cfg := worldConfig(t, nVMs, nHosts, steps, 5)
	m, err := core.New(core.DefaultConfig(nVMs, nHosts, 11))
	if err != nil {
		t.Fatal(err)
	}
	h := AttachLSPIHealth(m, 25)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(m); err != nil {
		t.Fatal(err)
	}
	if h.Err() != nil {
		t.Fatalf("LSPI health probe failed: %v", h.Err())
	}
	if h.Applied() == 0 {
		t.Fatal("no updates were shadowed — hook not wired")
	}
	if h.Probes() == 0 {
		t.Fatal("auto-probe never fired")
	}
	if err := h.Probe(); err != nil {
		t.Fatalf("final probe failed: %v", err)
	}
}

// TestLSPIHealthDetectsDrift corrupts the shadow T (equivalently: what a
// silent bug in the sparse kernel would look like) and asserts the inverse
// probe notices.
func TestLSPIHealthDetectsDrift(t *testing.T) {
	const nVMs, nHosts, steps = 6, 3, 40
	cfg := worldConfig(t, nVMs, nHosts, steps, 5)
	m, err := core.New(core.DefaultConfig(nVMs, nHosts, 11))
	if err != nil {
		t.Fatal(err)
	}
	h := AttachLSPIHealth(m, 0) // manual probes only
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(m); err != nil {
		t.Fatal(err)
	}
	if err := h.Probe(); err != nil {
		t.Fatalf("probe failed before corruption: %v", err)
	}
	h.t.Add(0, 0, 1000)
	if err := h.Probe(); err == nil {
		t.Fatal("corrupted T not detected")
	} else if !strings.Contains(err.Error(), "‖B·T − I‖∞") {
		t.Fatalf("unexpected error: %v", err)
	}
}
