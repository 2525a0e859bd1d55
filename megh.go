// Package megh is a from-scratch Go reproduction of
//
//	Basu, Wang, Hong, Chen, Bressan:
//	"Learn-as-you-go with Megh: Efficient Live Migration of Virtual
//	Machines", ICDCS 2017,
//
// comprising the Megh online reinforcement-learning migration scheduler
// (sparse-projected least-squares policy iteration with Sherman–Morrison
// incremental inverses and Boltzmann exploration), a CloudSim-equivalent
// power-aware data-center simulator, the MMT heuristic baselines
// (THR/IQR/MAD/LR/LRR), the MadVM and Q-learning learning baselines,
// PlanetLab-like and Google-Cluster-like workload generators, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// # Quick start
//
//	setup := megh.Setup{Dataset: megh.PlanetLab, Hosts: 100, VMs: 132,
//		Steps: 288, Seed: 1}
//	cfg, _ := setup.Build()
//	sim, _ := megh.NewSimulator(cfg)
//	learner, _ := megh.New(megh.DefaultConfig(setup.VMs, setup.Hosts, 42))
//	result, _ := sim.Run(learner)
//	fmt.Printf("total cost: %.2f USD over %d migrations\n",
//		result.TotalCost(), result.TotalMigrations())
//
// The package is a facade: implementations live in internal/ packages
// (internal/core holds the learner, internal/sim the simulator, and so
// on); everything a downstream user needs is re-exported here.
package megh

import (
	"net/http"

	"megh/internal/core"
	"megh/internal/invariant"
	"megh/internal/mdp"
	"megh/internal/server"
	"megh/internal/sim"
	"megh/internal/trace"
)

// Core simulator vocabulary, re-exported.
type (
	// Policy decides live migrations each simulation step.
	Policy = sim.Policy
	// Migration is one live-migration request (VM → destination host).
	Migration = sim.Migration
	// Snapshot is the read-only data-center view a Policy receives.
	Snapshot = sim.Snapshot
	// Result aggregates a simulation run's metrics.
	Result = sim.Result
	// StepMetrics holds one interval's measurements.
	StepMetrics = sim.StepMetrics
	// Feedback carries the realised per-stage cost to learning policies; valid only during Observe.
	Feedback = sim.Feedback
	// FeedbackReceiver marks policies that learn from realised costs.
	FeedbackReceiver = sim.FeedbackReceiver
	// HostSpec describes a physical machine.
	HostSpec = sim.HostSpec
	// VMSpec describes a virtual machine's requested resources.
	VMSpec = sim.VMSpec
	// SimConfig assembles a simulation run.
	SimConfig = sim.Config
	// Simulator executes a SimConfig against policies.
	Simulator = sim.Simulator
	// Placement selects the initial VM→host strategy.
	Placement = sim.Placement
)

// Initial placement strategies, re-exported.
const (
	PlacementRandom     = sim.PlacementRandom
	PlacementRoundRobin = sim.PlacementRoundRobin
	PlacementFirstFit   = sim.PlacementFirstFit
)

// NewSimulator validates a configuration and returns a Simulator. Each
// Run(policy) call replays the identical world, so policies can be
// compared on equal footing.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return sim.New(cfg) }

// Megh learner, re-exported from internal/core.
type (
	// Learner is the Megh reinforcement-learning policy (Algorithm 1–2).
	Learner = core.Megh
	// Config parameterises the Megh learner.
	Config = core.Config
	// Action is a (VM, destination host) pair in the learner's basis.
	Action = mdp.Action
)

// New constructs a Megh learner.
func New(cfg Config) (*Learner, error) { return core.New(cfg) }

// DefaultConfig returns the paper's §6.1 hyper-parameters (γ = 0.5,
// Temp₀ = 3, ε = 0.01, 2 % migration cap) for an N-VM, M-host data center.
func DefaultConfig(numVMs, numHosts int, seed int64) Config {
	return core.DefaultConfig(numVMs, numHosts, seed)
}

// Structured decision tracing, re-exported from internal/trace.
type (
	// Tracer records one JSONL event per simulator step and per learner
	// decision. Attach it to a SimConfig (Tracer field) and to a Learner
	// (Trace method); a nil Tracer disables tracing at zero cost.
	Tracer = trace.Tracer
	// TraceOptions configures a Tracer's sink, ring size, and whether
	// wall-clock timings are recorded (timings make traces nondeterministic
	// across runs, so they are opt-in).
	TraceOptions = trace.Options
	// TraceEvent is one decoded trace event.
	TraceEvent = trace.Event
)

// NewTracer builds a Tracer. The zero TraceOptions value keeps an
// in-memory ring of recent events without writing anywhere.
func NewTracer(o TraceOptions) (*Tracer, error) { return trace.New(o) }

// Runtime invariant checking, re-exported from internal/invariant.
type (
	// Checker validates simulator state after each step; attach one via
	// SimConfig.Checker. Any non-nil CheckStep return aborts the run.
	Checker = sim.Checker
	// StepCheck bundles what a Checker may inspect after one step.
	StepCheck = sim.StepCheck
	// SimChecker is the stock Checker: it audits the simulator's
	// conservation laws (placement bijection, occupancy sums, migration
	// accounting, cost decomposition) as a pure observer — a checked run
	// is byte-identical to an unchecked one.
	SimChecker = invariant.SimChecker
)

// NewSimChecker returns a fresh conservation-law checker for one Run.
func NewSimChecker() *SimChecker { return invariant.NewSimChecker() }

// HTTP service and client, re-exported from internal/server: the same
// scheduler as a deployable component (cmd/meghd) or embedded handler.
type (
	// Service hosts learners over HTTP as named /v2 sessions, among them
	// the reserved "default" session its config sizes.
	Service = server.Service
	// ServiceConfig parameterises a Service (dimensions, checkpointing,
	// session cap, admission limit).
	ServiceConfig = server.Config
	// ServiceClient is the typed HTTP client for a meghd endpoint or
	// cluster. Requests take a context and retry transient failures (5xx
	// and 429) with exponential backoff; against a cluster, the node it
	// talks to proxies each session to its owner.
	ServiceClient = server.Client
	// SessionClient is a ServiceClient view scoped to one named /v2
	// session; obtain one with ServiceClient.Session(id).
	SessionClient = server.SessionClient
	// SessionSpec declares a session's dimensions and hyper-parameters.
	SessionSpec = server.SessionSpec
	// SessionInfo reports one session's spec, residency, and counters.
	SessionInfo = server.SessionInfo
	// RemotePolicy adapts a SessionClient into a sim.Policy, so a
	// simulation can drive a remote learner.
	RemotePolicy = server.RemotePolicy
	// StateRequest is one monitoring interval's snapshot on the wire.
	StateRequest = server.StateRequest
	// HostState and VMState are a StateRequest's constituents.
	HostState = server.HostState
	VMState   = server.VMState
	// DecideResponse carries the migration decisions for a snapshot.
	DecideResponse = server.DecideResponse
	// FeedbackRequest reports the realised cost of an interval.
	FeedbackRequest = server.FeedbackRequest
	// StatsResponse reports a learner's internals over the wire.
	StatsResponse = server.StatsResponse
	// ClusterConfig turns a Service into one node of a meghd cluster:
	// consistent-hash session routing, checkpoint replication, and
	// leader-driven rebalancing. Set it on ServiceConfig.Cluster.
	ClusterConfig = server.ClusterConfig
)

// NewService builds an HTTP service hosting Megh learners.
func NewService(cfg ServiceConfig) (*Service, error) { return server.New(cfg) }

// NewServiceClient returns a client for a meghd base URL. A nil
// httpClient uses http.DefaultClient.
func NewServiceClient(baseURL string, httpClient *http.Client) *ServiceClient {
	return server.NewClient(baseURL, httpClient)
}

// NewRemoteSessionPolicy adapts a session-scoped client into a Policy,
// so one simulator process can drive many named remote learners.
func NewRemoteSessionPolicy(sc *SessionClient) *RemotePolicy {
	return server.NewRemoteSessionPolicy(sc)
}
