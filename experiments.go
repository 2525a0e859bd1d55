package megh

import (
	"megh/internal/experiments"
	"megh/internal/power"
	"megh/internal/sim"
	"megh/internal/workload"
)

// Experiment harness, re-exported: everything needed to regenerate the
// paper's Tables 2–3 and Figures 1–8.
type (
	// Setup sizes one experiment (dataset, M hosts, N VMs, steps, seed).
	Setup = experiments.Setup
	// Dataset selects the PlanetLab-like or Google-like workload.
	Dataset = experiments.Dataset
	// TableRow is one policy's line in a Table-2/3-style comparison.
	TableRow = experiments.TableRow
	// SeriesSet maps policy → full run result (Figures 2–5 series).
	SeriesSet = experiments.SeriesSet
	// ScalabilityPoint is one cell of the Figure-6 grids.
	ScalabilityPoint = experiments.ScalabilityPoint
	// SensitivityPoint is one boxplot of Figure 8.
	SensitivityPoint = experiments.SensitivityPoint
)

// The two evaluation workloads (§6.2).
const (
	PlanetLab = experiments.PlanetLab
	Google    = experiments.Google
)

// PaperPlanetLab returns the full Table-2 setup (800 PMs, 1052 VMs, 7 days).
func PaperPlanetLab(seed int64) Setup { return experiments.PaperPlanetLab(seed) }

// PaperGoogle returns the full Table-3 setup (500 PMs, 2000 VMs, 7 days).
func PaperGoogle(seed int64) Setup { return experiments.PaperGoogle(seed) }

// PaperMadVMSubset returns the Figure-4/5 setup (100 PMs, 150 VMs, 3 days).
func PaperMadVMSubset(ds Dataset, seed int64) Setup {
	return experiments.PaperMadVMSubset(ds, seed)
}

// PolicyNames lists the registered policies in presentation order.
func PolicyNames() []string { return experiments.PolicyNames() }

// NewPolicy builds any registered policy by its table name (e.g. "Megh",
// "THR-MMT", "MadVM").
func NewPolicy(name string, numVMs, numHosts int, seed int64) (Policy, error) {
	return experiments.NewPolicy(name, numVMs, numHosts, seed)
}

// RunPolicy builds and runs one named policy on a setup.
func RunPolicy(setup Setup, policy string) (*Result, error) {
	return experiments.RunPolicy(setup, policy)
}

// RunTable reproduces a Table-2/3-style comparison.
func RunTable(setup Setup, policies []string) ([]TableRow, error) {
	return experiments.RunTable(setup, policies)
}

// Workload substrate, re-exported.
type (
	// Trace is a per-VM CPU-utilization sequence (one sample per 5 min).
	Trace = workload.Trace
	// PlanetLabTraceConfig parameterises the PlanetLab-like generator.
	PlanetLabTraceConfig = workload.PlanetLabConfig
	// GoogleTraceConfig parameterises the Google-like generator.
	GoogleTraceConfig = workload.GoogleConfig
	// GoogleTask records one synthetic Google task (Figure 1b analysis).
	GoogleTask = workload.GoogleTask
)

// GeneratePlanetLabTraces produces n PlanetLab-like traces matched to the
// paper's §6.2 statistics (mean ≈ 12 %, std ≈ 34 %, sustained bursts). The
// VMs are generated in parallel; the traces depend on cfg and n alone, not
// on GOMAXPROCS.
func GeneratePlanetLabTraces(cfg PlanetLabTraceConfig, n int) ([]Trace, error) {
	return workload.GeneratePlanetLab(cfg, n)
}

// DefaultPlanetLabTraceConfig returns the fitted generator parameters.
func DefaultPlanetLabTraceConfig(seed int64) PlanetLabTraceConfig {
	return workload.DefaultPlanetLabConfig(seed)
}

// GenerateGoogleTraces produces n Google-Cluster-like traces plus the
// underlying task list (log-spread durations over 10¹–10⁶ s), in VM order.
// Like GeneratePlanetLabTraces, the output does not depend on GOMAXPROCS.
func GenerateGoogleTraces(cfg GoogleTraceConfig, n int) ([]Trace, []GoogleTask, error) {
	return workload.GenerateGoogle(cfg, n)
}

// DefaultGoogleTraceConfig returns the fitted generator parameters.
func DefaultGoogleTraceConfig(seed int64) GoogleTraceConfig {
	return workload.DefaultGoogleConfig(seed)
}

// Fleet constructors for the paper's host/VM mixes.

// PlanetLabHosts builds m hosts alternating HP ProLiant ML110 G4/G5
// (Table 1 power models).
func PlanetLabHosts(m int) ([]HostSpec, error) { return sim.PlanetLabHosts(m) }

// PlanetLabVMs builds n VM specs from the paper's instance mix.
func PlanetLabVMs(n int, seed int64) ([]VMSpec, error) { return sim.PlanetLabVMs(n, seed) }

// GoogleHosts builds m hosts for the Google setup.
func GoogleHosts(m int) ([]HostSpec, error) { return sim.GoogleHosts(m) }

// GoogleVMs builds n VM specs for the Google setup.
func GoogleVMs(n int, seed int64) ([]VMSpec, error) { return sim.GoogleVMs(n, seed) }

// Power models, re-exported.
type PowerModel = power.Model

// HPProLiantG4 and HPProLiantG5 return the paper's Table-1 SPECpower
// models.
func HPProLiantG4() PowerModel { return power.HPProLiantG4() }

// HPProLiantG5 returns the second Table-1 server model.
func HPProLiantG5() PowerModel { return power.HPProLiantG5() }
