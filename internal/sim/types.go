// Package sim is the CloudSim-equivalent data-center simulator the
// reproduction runs on (DESIGN.md substitution S1). It executes the
// power-aware simulation loop the paper's experiments assume: at every
// τ = 5 min step it reads one utilization sample per VM, lets the
// allocation policy under test decide live migrations, executes them,
// and integrates energy, SLA-downtime, and cost metrics.
//
// Policies only interact with the simulator through the read-only Snapshot
// and the returned []Migration, so heuristics (MMT), learners (Megh,
// MadVM, Q-learning) and trivial baselines plug in interchangeably.
package sim

import (
	"fmt"
	"sort"

	"megh/internal/cost"
	"megh/internal/obs"
	"megh/internal/power"
	"megh/internal/trace"
	"megh/internal/workload"
)

// HostSpec describes one physical machine (PM). Following paper §3.1, all
// CPUs of a PM are modelled as a single core with their cumulative MIPS.
type HostSpec struct {
	// MIPS is the cumulative CPU capacity.
	MIPS float64
	// RAMMB is the memory capacity in MiB.
	RAMMB float64
	// BandwidthMbps is the network bandwidth available for migrations.
	BandwidthMbps float64
	// Power is the utilization→Watts model (e.g. power.HPProLiantG4()).
	Power power.Model
}

// Validate reports the first invalid field.
func (h HostSpec) Validate() error {
	switch {
	case h.MIPS <= 0:
		return fmt.Errorf("sim: host MIPS %g must be positive", h.MIPS)
	case h.RAMMB <= 0:
		return fmt.Errorf("sim: host RAM %g must be positive", h.RAMMB)
	case h.BandwidthMbps <= 0:
		return fmt.Errorf("sim: host bandwidth %g must be positive", h.BandwidthMbps)
	case h.Power == nil:
		return fmt.Errorf("sim: host power model is nil")
	}
	return nil
}

// VMSpec describes one virtual machine's requested resources.
type VMSpec struct {
	// MIPS is the requested CPU capacity; the trace utilization is a
	// fraction of this.
	MIPS float64
	// RAMMB is the allocated memory, which determines migration time
	// (TM = RAM / bandwidth, paper §3.3).
	RAMMB float64
	// BandwidthMbps is the VM's network allocation.
	BandwidthMbps float64
}

// Validate reports the first invalid field.
func (v VMSpec) Validate() error {
	switch {
	case v.MIPS <= 0:
		return fmt.Errorf("sim: VM MIPS %g must be positive", v.MIPS)
	case v.RAMMB <= 0:
		return fmt.Errorf("sim: VM RAM %g must be positive", v.RAMMB)
	case v.BandwidthMbps < 0:
		return fmt.Errorf("sim: VM bandwidth %g must be non-negative", v.BandwidthMbps)
	}
	return nil
}

// Placement selects the initial VM→host assignment strategy.
type Placement int

// Initial placement strategies.
const (
	// PlacementRandom spreads VMs uniformly at random across hosts with a
	// RAM-feasibility check — the setup of the paper's MadVM comparison
	// ("allocated uniformly at random ... so that there is no initial
	// bias", §6.3).
	PlacementRandom Placement = iota + 1
	// PlacementRoundRobin deals VMs to hosts in order.
	PlacementRoundRobin
	// PlacementFirstFit packs each VM onto the first host with enough
	// spare RAM, mimicking CloudSim's default simple provisioner.
	PlacementFirstFit
	// PlacementExplicit uses Config.InitialAssignment verbatim. The
	// metamorphic host-relabeling suite needs this: permuting host indices
	// must reproduce the permuted world exactly, which no strategy that
	// re-derives the assignment can guarantee.
	PlacementExplicit
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlacementRandom:
		return "random"
	case PlacementRoundRobin:
		return "round-robin"
	case PlacementFirstFit:
		return "first-fit"
	case PlacementExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Config assembles one simulation run.
type Config struct {
	// Hosts and VMs define the data center.
	Hosts []HostSpec
	VMs   []VMSpec
	// Traces supplies one utilization trace per VM; every sample must lie
	// in [0,1] (no NaN or ±Inf).
	Traces []workload.Trace
	// Steps is the horizon in τ-intervals; 0 means the longest trace.
	Steps int
	// StepSeconds is τ; 0 means 300 s (5 minutes, the paper's interval).
	StepSeconds float64
	// OverloadThreshold is β (paper: 0.70): a host above it accrues
	// overloading time for its VMs (Eq. 4).
	OverloadThreshold float64
	// Cost holds the money model; zero value means cost.Default().
	Cost cost.Params
	// InitialPlacement defaults to PlacementRandom (or PlacementExplicit
	// when InitialAssignment is set).
	InitialPlacement Placement
	// InitialAssignment fixes the initial VM→host map for
	// PlacementExplicit: entry j is VM j's host. Must satisfy RAM
	// feasibility; ignored by the other strategies.
	InitialAssignment []int
	// Seed is the run's base seed. The simulator itself consumes only the
	// placement sub-stream (Seeds().Placement()); harnesses derive the
	// policy seed and any further component streams from the same base via
	// Seeds(), so one seed reproduces the entire run.
	Seed int64
	// HistoryLen is how many past host-utilization samples the Snapshot
	// exposes to policies (MMT's detectors need ~12); 0 means 12. The
	// same window length is kept per VM for selection policies that
	// inspect VM behaviour (e.g. maximum-correlation selection).
	HistoryLen int
	// Failures injects host outages for robustness experiments: during
	// [From, Until) the host delivers no capacity, its VMs are fully
	// down, and it cannot receive migrations. Policies observe the
	// failure as an overloaded host (plus Snapshot.HostFailed).
	Failures []Failure
	// Lifecycle schedules VM arrivals and departures over a fixed slot
	// universe (len(VMs) slots): a departed slot frees its host's RAM and
	// MIPS, accrues no SLA time, and reads VMHost -1; an arriving slot is
	// placed on the first host that fits it in both dimensions (or its
	// pinned host), deferring to later steps while nothing fits. Events
	// are applied at the start of their step, before utilization is
	// sampled and the policy decides. Empty means the static population
	// the paper's experiments assume.
	Lifecycle []LifecycleEvent
	// InitialAlive marks which VM slots exist at step 0 (nil = all). A
	// slot that starts dead is placed only when a lifecycle arrival
	// brings it up. Must have len(VMs) entries when non-nil.
	InitialAlive []bool
	// Migration optionally replaces the default RAM/bandwidth
	// migration-time estimate, e.g. with a topology-aware model.
	Migration MigrationTimeModel
	// Metrics optionally receives per-step instrumentation (decide
	// latency, migration/rejection counts, overload counts), labelled by
	// policy name so several Run calls on one registry stay separable.
	Metrics *obs.Registry
	// Tracer optionally receives one structured event per step: executed
	// and rejected migrations (with rejection reasons), the cost
	// decomposition, and host activity transitions. Policies that also
	// trace (core.Megh via Trace) should share the same tracer so decide
	// and step events interleave in one stream. Nil disables tracing at
	// zero cost.
	Tracer *trace.Tracer
	// Checker optionally validates the world state after every step (see
	// internal/invariant for the conservation-law implementation). A
	// returned error aborts the run — an invariant violation means the
	// metrics can no longer be trusted, so there is nothing useful to
	// finish. Nil disables checking at the cost of one pointer test per
	// step.
	Checker Checker
}

// Checker validates simulator state. Implementations live outside the hot
// path's import graph (internal/invariant); the simulator only promises to
// call CheckStep once per completed step with a consistent view.
type Checker interface {
	// CheckStep inspects the post-step world. The StepCheck and everything
	// it references are owned by the simulator and valid only for the
	// duration of the call.
	CheckStep(c *StepCheck) error
}

// StepCheck bundles what a Checker may inspect after one step: the live
// snapshot (post-migration placement and utilizations), the step's feedback
// and metrics, and the pre-step placement/activity needed to audit
// migration accounting and the host wake/sleep state machine.
type StepCheck struct {
	// Step is the 0-based step index.
	Step int
	// Snapshot is the post-step world view.
	Snapshot *Snapshot
	// Feedback carries executed/rejected migrations and the cost
	// decomposition.
	Feedback *Feedback
	// Metrics is the step's aggregate record, exactly what Run returns.
	Metrics StepMetrics
	// PrevVMHost[j] is VM j's host before this step's migrations (but
	// after its lifecycle events: an arrived VM reads its placement, a
	// departed one -1).
	PrevVMHost []int
	// PrevActive[i] reports whether host i ran a VM before this step's
	// lifecycle events and migrations.
	PrevActive []bool
	// PrevAlive[j] reports whether VM slot j was alive before this step's
	// lifecycle events. Nil when the run has no lifecycle (all alive).
	PrevAlive []bool
	// Arrived lists the VM slots placed by lifecycle arrivals this step;
	// Snapshot.VMHost names each one's host.
	Arrived []int
	// Departed lists this step's lifecycle departures with the host each
	// slot vacated.
	Departed []Departure
}

// Departure records one executed lifecycle departure for checkers: the
// slot that left and the host it freed.
type Departure struct {
	VM   int
	Host int
}

// LifecycleKind selects what a LifecycleEvent does to its VM slot.
type LifecycleKind int

// Lifecycle event kinds.
const (
	// VMArrive brings a dead slot up. If no host fits the VM the arrival
	// is deferred and retried every following step until it places (or a
	// later VMDepart for the slot cancels it).
	VMArrive LifecycleKind = iota + 1
	// VMDepart takes a live slot down, freeing its host's capacity. On a
	// dead slot it cancels that slot's pending deferred arrival, if any.
	VMDepart
)

// String implements fmt.Stringer.
func (k LifecycleKind) String() string {
	switch k {
	case VMArrive:
		return "arrive"
	case VMDepart:
		return "depart"
	default:
		return fmt.Sprintf("lifecycle(%d)", int(k))
	}
}

// LifecycleEvent is one scheduled VM arrival or departure.
type LifecycleEvent struct {
	// Step is when the event applies (start of the interval).
	Step int
	// VM is the slot index.
	VM int
	// Kind is VMArrive or VMDepart.
	Kind LifecycleKind
	// Host pins an arrival's destination (-1 = first host that fits,
	// scanning ascending). Ignored for departures.
	Host int
}

// Validate reports out-of-range fields given the world dimensions.
func (e LifecycleEvent) Validate(numVMs, numHosts int) error {
	switch {
	case e.Step < 0:
		return fmt.Errorf("sim: lifecycle step %d negative", e.Step)
	case e.VM < 0 || e.VM >= numVMs:
		return fmt.Errorf("sim: lifecycle VM %d out of range [0,%d)", e.VM, numVMs)
	case e.Kind != VMArrive && e.Kind != VMDepart:
		return fmt.Errorf("sim: lifecycle kind %d unknown", int(e.Kind))
	case e.Kind == VMArrive && (e.Host < -1 || e.Host >= numHosts):
		return fmt.Errorf("sim: lifecycle arrival host %d out of range", e.Host)
	}
	return nil
}

// Failure is one injected host outage.
type Failure struct {
	// Host is the failing host's index.
	Host int
	// From (inclusive) and Until (exclusive) bound the outage in steps.
	From, Until int
}

// Validate reports out-of-range fields given the host count.
func (f Failure) Validate(numHosts int) error {
	switch {
	case f.Host < 0 || f.Host >= numHosts:
		return fmt.Errorf("sim: failure host %d out of range [0,%d)", f.Host, numHosts)
	case f.From < 0 || f.Until <= f.From:
		return fmt.Errorf("sim: failure window [%d,%d) invalid", f.From, f.Until)
	}
	return nil
}

// MigrationTimeModel estimates the live-migration copy time. The default
// is RAM divided by the bottleneck bandwidth (paper §3.3); a
// topology-aware model can scale it with network distance.
type MigrationTimeModel interface {
	// MigrationSeconds returns the copy time for moving vm to dest.
	MigrationSeconds(s *Snapshot, vm, dest int) float64
}

// Migration asks the simulator to live-migrate VM to host Dest. A
// migration whose Dest equals the VM's current host is a no-op and is not
// counted or charged.
type Migration struct {
	VM   int
	Dest int
}

// Policy decides live migrations each step. Implementations must treat the
// Snapshot as read-only. Decide is timed by the simulator to produce the
// per-step execution-time metric of Tables 2–3.
type Policy interface {
	// Name identifies the policy in reports (e.g. "Megh", "THR-MMT").
	Name() string
	// Decide returns the migrations to execute for this step.
	Decide(s *Snapshot) []Migration
}

const (
	defaultStepSeconds = 300.0
	defaultHistoryLen  = 12
	defaultOverload    = 0.70
)

// normalized returns a copy of the config with defaults applied, after
// validation.
func (c Config) normalized() (Config, error) {
	if len(c.Hosts) == 0 {
		return c, fmt.Errorf("sim: no hosts configured")
	}
	if len(c.VMs) == 0 {
		return c, fmt.Errorf("sim: no VMs configured")
	}
	if len(c.Traces) != len(c.VMs) {
		return c, fmt.Errorf("sim: %d traces for %d VMs", len(c.Traces), len(c.VMs))
	}
	for j, tr := range c.Traces {
		for t, u := range tr {
			if !(u >= 0 && u <= 1) { // also catches NaN
				return c, fmt.Errorf("sim: VM %d trace sample at step %d is %g, outside [0,1]", j, t, u)
			}
		}
	}
	for i, h := range c.Hosts {
		if err := h.Validate(); err != nil {
			return c, fmt.Errorf("host %d: %w", i, err)
		}
	}
	for i, v := range c.VMs {
		if err := v.Validate(); err != nil {
			return c, fmt.Errorf("vm %d: %w", i, err)
		}
	}
	if c.StepSeconds == 0 {
		c.StepSeconds = defaultStepSeconds
	}
	if c.StepSeconds < 0 {
		return c, fmt.Errorf("sim: negative StepSeconds %g", c.StepSeconds)
	}
	if c.OverloadThreshold == 0 {
		c.OverloadThreshold = defaultOverload
	}
	if c.OverloadThreshold < 0 || c.OverloadThreshold > 1 {
		return c, fmt.Errorf("sim: OverloadThreshold %g out of [0,1]", c.OverloadThreshold)
	}
	if c.Cost == (cost.Params{}) {
		c.Cost = cost.Default()
	}
	if err := c.Cost.Validate(); err != nil {
		return c, err
	}
	if c.InitialPlacement == 0 {
		if c.InitialAssignment != nil {
			c.InitialPlacement = PlacementExplicit
		} else {
			c.InitialPlacement = PlacementRandom
		}
	}
	if c.InitialAlive != nil && len(c.InitialAlive) != len(c.VMs) {
		return c, fmt.Errorf("sim: InitialAlive covers %d of %d VMs",
			len(c.InitialAlive), len(c.VMs))
	}
	if c.InitialPlacement == PlacementExplicit {
		if len(c.InitialAssignment) != len(c.VMs) {
			return c, fmt.Errorf("sim: explicit assignment covers %d of %d VMs",
				len(c.InitialAssignment), len(c.VMs))
		}
		for j, h := range c.InitialAssignment {
			if h == -1 && c.InitialAlive != nil && !c.InitialAlive[j] {
				continue // dead slot: placed only when it arrives
			}
			if h < 0 || h >= len(c.Hosts) {
				return c, fmt.Errorf("sim: VM %d assigned to unknown host %d", j, h)
			}
		}
	}
	if c.HistoryLen == 0 {
		c.HistoryLen = defaultHistoryLen
	}
	if c.HistoryLen < 0 {
		return c, fmt.Errorf("sim: negative HistoryLen %d", c.HistoryLen)
	}
	if c.Steps == 0 {
		for _, tr := range c.Traces {
			if tr.Len() > c.Steps {
				c.Steps = tr.Len()
			}
		}
	}
	if c.Steps <= 0 {
		return c, fmt.Errorf("sim: horizon resolves to %d steps", c.Steps)
	}
	for i, f := range c.Failures {
		if err := f.Validate(len(c.Hosts)); err != nil {
			return c, fmt.Errorf("failure %d: %w", i, err)
		}
	}
	for i, e := range c.Lifecycle {
		if err := e.Validate(len(c.VMs), len(c.Hosts)); err != nil {
			return c, fmt.Errorf("lifecycle %d: %w", i, err)
		}
	}
	if len(c.Lifecycle) > 0 {
		// Stable-sort by step on a private copy: callers keep their slice,
		// and same-step events keep their given order (the order deferred
		// arrivals queue in).
		sorted := append([]LifecycleEvent(nil), c.Lifecycle...)
		sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Step < sorted[b].Step })
		c.Lifecycle = sorted
	}
	return c, nil
}
