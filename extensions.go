package megh

import (
	"io"

	"megh/internal/consolidation"
	"megh/internal/core"
	"megh/internal/cost"
	"megh/internal/experiments"
	"megh/internal/sim"
	"megh/internal/topology"
	"megh/internal/workload"
)

// Cost model, re-exported.
type (
	// CostParams holds the §3 cost-model constants (energy tariff, SLA
	// refund tiers, optional resource modules).
	CostParams = cost.Params
	// SLAAccounting selects how refund tiers are keyed.
	SLAAccounting = cost.SLAAccounting
)

// SLA accounting modes (see DESIGN.md §5.4).
const (
	SLAPerInterval = cost.SLAPerInterval
	SLACumulative  = cost.SLACumulative
)

// DefaultCostParams returns the paper's §6.1 cost constants.
func DefaultCostParams() CostParams { return cost.Default() }

// Failure injects a host outage for robustness experiments.
type Failure = sim.Failure

// MigrationTimeModel estimates live-migration copy times; plug a custom
// one into SimConfig.Migration.
type MigrationTimeModel = sim.MigrationTimeModel

// Fat-tree topology extension (§7 future work).
type (
	// FatTree is a k-ary fat-tree host layout with hop-count distances.
	FatTree = topology.FatTree
	// TopologyMigrationModel scales migration times with fat-tree path
	// length.
	TopologyMigrationModel = topology.MigrationModel
)

// NewFatTree builds a k-ary fat-tree (k even).
func NewFatTree(k int) (*FatTree, error) { return topology.NewFatTree(k) }

// NewTopologyMigrationModel builds a fat-tree migration-time model sized
// for numHosts hosts.
func NewTopologyMigrationModel(numHosts int, hopFactor float64) (*TopologyMigrationModel, error) {
	return topology.NewMigrationModel(numHosts, hopFactor)
}

// VM victim-selection policies for the consolidation baselines.
type Selection = consolidation.Selection

// Victim-selection policies.
const (
	SelectMMT            = consolidation.SelectMMT
	SelectRandom         = consolidation.SelectRandom
	SelectMaxCorrelation = consolidation.SelectMaxCorrelation
	SelectMinUtil        = consolidation.SelectMinUtil
)

// LoadLearner restores a Megh learner saved with (*Learner).SaveState —
// Q-table persistence across scheduler restarts.
func LoadLearner(r io.Reader) (*Learner, error) { return core.LoadState(r) }

// Diurnal (periodic) workload extension (§7's "periodicity" knowledge).
type DiurnalTraceConfig = workload.DiurnalConfig

// DefaultDiurnalTraceConfig returns a gentle day/night pattern.
func DefaultDiurnalTraceConfig(seed int64) DiurnalTraceConfig {
	return workload.DefaultDiurnalConfig(seed)
}

// GenerateDiurnalTraces produces n periodic traces. Like
// GeneratePlanetLabTraces, the output does not depend on GOMAXPROCS.
func GenerateDiurnalTraces(cfg DiurnalTraceConfig, n int) ([]Trace, error) {
	return workload.GenerateDiurnal(cfg, n)
}

// Ablation and robustness runners, re-exported.
type ReplicatedRow = experiments.ReplicatedRow

// RunReplicated runs each policy several times with distinct seeds and
// returns mean ± std summaries.
func RunReplicated(setup Setup, policies []string, reps int) ([]ReplicatedRow, error) {
	return experiments.RunReplicated(setup, policies, reps)
}

// RunCustom runs a pre-built policy on a setup with an optional simulator
// configuration mutator (cost model, topology, failures, …).
func RunCustom(setup Setup, p Policy, mutate func(*SimConfig)) (*Result, error) {
	return experiments.RunCustom(setup, p, mutate)
}

// FailureRecovery injects host outages and reports how each policy copes.
func FailureRecovery(setup Setup, policies []string, failures []Failure) ([]TableRow, error) {
	return experiments.FailureRecovery(setup, policies, failures)
}
