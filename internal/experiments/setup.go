// Package experiments assembles the paper's evaluation (§6): one named
// runner per table, figure and ablation, each returning the data the paper
// plots, and the CSV writers behind results/. Experiments is the registry
// cmd/experiments regenerates and checks that directory from.
package experiments

import (
	"fmt"

	"megh/internal/consolidation"
	"megh/internal/core"
	"megh/internal/madvm"
	"megh/internal/qlearn"
	"megh/internal/sim"
	"megh/internal/workload"
)

// Dataset selects which of the paper's two workloads drives an experiment.
type Dataset string

// The two evaluation workloads (§6.2).
const (
	PlanetLab Dataset = "planetlab"
	Google    Dataset = "google"
)

// Validate reports unknown datasets.
func (d Dataset) Validate() error {
	switch d {
	case PlanetLab, Google:
		return nil
	default:
		return fmt.Errorf("experiments: unknown dataset %q", string(d))
	}
}

// Setup sizes one experiment.
type Setup struct {
	Dataset Dataset
	// Hosts (M) and VMs (N).
	Hosts, VMs int
	// Steps is the horizon in 5-minute intervals.
	Steps int
	// Seed drives trace generation, VM specs and initial placement.
	Seed int64
	// Placement defaults to first-fit (CloudSim's provisioner); the
	// MadVM comparison uses random (§6.3).
	Placement sim.Placement
}

// PaperPlanetLab returns the full Table-2 setup: 800 PMs, 1052 VMs, 7 days.
func PaperPlanetLab(seed int64) Setup {
	return Setup{Dataset: PlanetLab, Hosts: 800, VMs: 1052, Steps: workload.SevenDays, Seed: seed}
}

// PaperGoogle returns the full Table-3 setup: 500 PMs, 2000 VMs, 7 days.
func PaperGoogle(seed int64) Setup {
	return Setup{Dataset: Google, Hosts: 500, VMs: 2000, Steps: workload.SevenDays, Seed: seed}
}

// PaperMadVMSubset returns the Figure-4/5 setup: 100 PMs, 150 VMs, 3 days,
// uniform random initial placement.
func PaperMadVMSubset(ds Dataset, seed int64) Setup {
	return Setup{
		Dataset: ds, Hosts: 100, VMs: 150, Steps: workload.ThreeDays,
		Seed: seed, Placement: sim.PlacementRandom,
	}
}

// PolicySeed derives the seed for the policy under test from the setup's
// base seed, via the simulator's sub-stream scheme (sim.Seeds). One base
// seed thus pins traces, specs, placement and policy exploration at once.
func (s Setup) PolicySeed() int64 {
	return sim.Seeds{Base: s.Seed}.Policy()
}

// Scaled shrinks a setup by an integer factor for fast benchmarks; steps
// are shrunk too but kept ≥ 36 (3 hours) so the dynamics still show.
func (s Setup) Scaled(factor int) Setup {
	if factor <= 1 {
		return s
	}
	out := s
	out.Hosts = max(2, s.Hosts/factor)
	out.VMs = max(2, s.VMs/factor)
	out.Steps = max(36, s.Steps/factor)
	return out
}

// Build materialises the setup into a ready simulator configuration.
func (s Setup) Build() (sim.Config, error) {
	if err := s.Dataset.Validate(); err != nil {
		return sim.Config{}, err
	}
	if s.Hosts <= 0 || s.VMs <= 0 || s.Steps <= 0 {
		return sim.Config{}, fmt.Errorf("experiments: setup %+v has non-positive sizes", s)
	}
	var (
		hosts  []sim.HostSpec
		vms    []sim.VMSpec
		traces []workload.Trace
		err    error
	)
	switch s.Dataset {
	case PlanetLab:
		hosts, err = sim.PlanetLabHosts(s.Hosts)
		if err != nil {
			return sim.Config{}, err
		}
		vms, err = sim.PlanetLabVMs(s.VMs, s.Seed)
		if err != nil {
			return sim.Config{}, err
		}
		cfg := workload.DefaultPlanetLabConfig(s.Seed)
		cfg.Steps = s.Steps
		traces, err = workload.GeneratePlanetLab(cfg, s.VMs)
		if err != nil {
			return sim.Config{}, err
		}
	case Google:
		hosts, err = sim.GoogleHosts(s.Hosts)
		if err != nil {
			return sim.Config{}, err
		}
		vms, err = sim.GoogleVMs(s.VMs, s.Seed)
		if err != nil {
			return sim.Config{}, err
		}
		cfg := workload.DefaultGoogleConfig(s.Seed)
		cfg.Steps = s.Steps
		traces, _, err = workload.GenerateGoogle(cfg, s.VMs)
		if err != nil {
			return sim.Config{}, err
		}
	}
	placement := s.Placement
	if placement == 0 {
		placement = sim.PlacementFirstFit
	}
	cfg := sim.Config{
		Hosts:            hosts,
		VMs:              vms,
		Traces:           traces,
		Steps:            s.Steps,
		Seed:             s.Seed,
		InitialPlacement: placement,
	}
	if checkerFactory != nil {
		cfg.Checker = checkerFactory()
	}
	return cfg, nil
}

// PolicyFactory builds a policy for an N-VM, M-host world.
type PolicyFactory func(numVMs, numHosts int, seed int64) (sim.Policy, error)

// PolicyNames lists the registered policies in presentation order
// (Tables 2–3 column order, then the extra learners).
func PolicyNames() []string {
	return []string{"THR-MMT", "IQR-MMT", "MAD-MMT", "LR-MMT", "LRR-MMT", "Megh", "MadVM", "Q-learning"}
}

// NewPolicy builds a registered policy by name.
func NewPolicy(name string, numVMs, numHosts int, seed int64) (sim.Policy, error) {
	switch name {
	case "Megh":
		return core.New(core.DefaultConfig(numVMs, numHosts, seed))
	case "THR-MMT":
		return consolidation.NewTHRMMT()
	case "IQR-MMT":
		return consolidation.NewIQRMMT()
	case "MAD-MMT":
		return consolidation.NewMADMMT()
	case "LR-MMT":
		return consolidation.NewLRMMT()
	case "LRR-MMT":
		return consolidation.NewLRRMMT()
	case "MadVM":
		return madvm.New(numVMs, madvm.DefaultConfig(seed))
	case "Q-learning":
		return qlearn.New(numVMs, qlearn.DefaultConfig(seed))
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}
