package sim

import (
	"fmt"
	"math/rand"
	"time"

	"megh/internal/cost"
	"megh/internal/obs"
	"megh/internal/trace"
)

// Feedback is the post-step signal delivered to policies that implement
// FeedbackReceiver. It is what lets learning policies (Megh, MadVM,
// Q-learning) observe the realised per-stage cost of their decisions.
// Like the Snapshot, it and its slices are the simulator's scratch, reused
// every step: valid only during the Observe call (copy anything you keep).
type Feedback struct {
	// Step is the interval that just completed.
	Step int
	// Executed lists the migrations that actually happened.
	Executed []Migration
	// Rejected lists requested migrations refused by feasibility checks.
	Rejected []Migration
	// StepCost is the interval's total cost (energy + SLA), the per-stage
	// cost C(s_{t-1}, s_t) of Eq. 6.
	StepCost float64
	// EnergyCost, SLACost and ResourceCost break StepCost down.
	EnergyCost, SLACost, ResourceCost float64
}

// FeedbackReceiver is implemented by policies that learn from realised
// costs. Observe is called once per step, after the interval's cost is
// known and before the next Decide; fb is valid only during the call.
type FeedbackReceiver interface {
	Observe(fb *Feedback)
}

// Simulator executes Config against one Policy per Run call. Each Run
// starts from the same seeded initial placement, so several policies can be
// compared on identical conditions.
type Simulator struct {
	cfg Config
}

// New validates the configuration and returns a Simulator.
func New(cfg Config) (*Simulator, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return &Simulator{cfg: norm}, nil
}

// Config returns the normalized configuration (defaults applied).
func (s *Simulator) Config() Config { return s.cfg }

// runState is the mutable world state of one Run.
type runState struct {
	cfg Config

	vmHost  []int
	hostVMs [][]int

	vmUtil   []float64
	vmMIPS   []float64
	hostUtil []float64

	// downtimeSec and requestedSec implement Eq. 4–5 accounting per VM;
	// stepDowntime is the current interval's share, which drives the
	// per-interval SLA refund.
	downtimeSec  []float64
	requestedSec []float64
	stepDowntime []float64

	// stage holds samples stageFrom … stageFrom+stageSteps−1 of every trace,
	// step-major: row k is step stageFrom+k, one sample per VM.
	stage     []float64
	stageFrom int

	hostWin, vmWin windows

	hostFailed []bool

	// Per-step scratch: the feedback handed to Observe, the step (plus one)
	// each VM last migrated in — the duplicate-migration check — and the
	// hosts this step's migrations touched.
	fb      Feedback
	migStep []int
	touched []int

	// VM lifecycle state: vmAlive is nil for fixed-population runs. The
	// lifecycle schedule is consumed by a cursor (events are sorted by
	// step at config normalization); arrivals that do not fit wait in
	// pendingArr in FIFO order and are retried every step.
	vmAlive     []bool
	lifeIdx     int
	pendingArr  []LifecycleEvent
	arrived     []int
	departed    []Departure
	departedIDs []int

	snap Snapshot

	// tracer and its scratch buffers; all nil/empty when tracing is off,
	// so the untraced hot loop pays one pointer test per guard.
	tracer     *trace.Tracer
	traceExec  []trace.Migration
	traceRej   []trace.Migration
	prevActive []bool
	woken      []int
	slept      []int

	// checker and its own pre-step buffers; independent of the tracer's so
	// enabling one never changes what the other observes.
	checker       Checker
	checkPrevHost []int
	checkPrevUp   []bool
	checkPrevLive []bool
	checkScratch  StepCheck
}

// Run executes the full horizon with the given policy and returns the
// collected metrics. State is rebuilt from the seed at every call.
func (s *Simulator) Run(p Policy) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	st, err := newRunState(s.cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy: p.Name(),
		Steps:  make([]StepMetrics, 0, s.cfg.Steps),
	}
	obsFeed := newObsFeed(s.cfg.Metrics, p.Name())
	receiver, _ := p.(FeedbackReceiver)
	for t := 0; t < s.cfg.Steps; t++ {
		metrics, fb, err := st.step(t, p)
		if err != nil {
			return nil, fmt.Errorf("sim: step %d: %w", t, err)
		}
		res.Steps = append(res.Steps, metrics)
		obsFeed.record(metrics)
		if receiver != nil {
			receiver.Observe(fb)
		}
	}
	res.VMDowntimeFrac = make([]float64, len(st.downtimeSec))
	for j := range st.downtimeSec {
		if st.requestedSec[j] > 0 {
			res.VMDowntimeFrac[j] = st.downtimeSec[j] / st.requestedSec[j]
		}
	}
	if err := s.cfg.Tracer.Flush(); err != nil {
		return nil, fmt.Errorf("sim: flushing trace: %w", err)
	}
	return res, nil
}

func newRunState(cfg Config) (*runState, error) {
	st := &runState{
		cfg:          cfg,
		vmHost:       make([]int, len(cfg.VMs)),
		hostVMs:      make([][]int, len(cfg.Hosts)),
		vmUtil:       make([]float64, len(cfg.VMs)),
		vmMIPS:       make([]float64, len(cfg.VMs)),
		hostUtil:     make([]float64, len(cfg.Hosts)),
		downtimeSec:  make([]float64, len(cfg.VMs)),
		requestedSec: make([]float64, len(cfg.VMs)),
		stepDowntime: make([]float64, len(cfg.VMs)),
		stage:        make([]float64, stageSteps*len(cfg.VMs)),
		stageFrom:    -stageSteps,
		hostWin:      newWindows(len(cfg.Hosts), cfg.HistoryLen),
		vmWin:        newWindows(len(cfg.VMs), cfg.HistoryLen),
		hostFailed:   make([]bool, len(cfg.Hosts)),
		migStep:      make([]int, len(cfg.VMs)),
	}
	if cfg.InitialAlive != nil || len(cfg.Lifecycle) > 0 {
		st.vmAlive = make([]bool, len(cfg.VMs))
		for j := range st.vmAlive {
			st.vmAlive[j] = cfg.InitialAlive == nil || cfg.InitialAlive[j]
		}
	}
	if err := st.place(); err != nil {
		return nil, err
	}
	st.tracer = cfg.Tracer
	if st.tracer != nil {
		st.prevActive = make([]bool, len(cfg.Hosts))
	}
	st.checker = cfg.Checker
	if st.checker != nil {
		st.checkPrevHost = make([]int, len(cfg.VMs))
		st.checkPrevUp = make([]bool, len(cfg.Hosts))
		if st.vmAlive != nil {
			st.checkPrevLive = make([]bool, len(cfg.VMs))
		}
	}
	st.snap = Snapshot{
		StepSeconds:       cfg.StepSeconds,
		OverloadThreshold: cfg.OverloadThreshold,
		VMHost:            st.vmHost,
		VMUtil:            st.vmUtil,
		VMMIPS:            st.vmMIPS,
		VMSpecs:           cfg.VMs,
		HostUtil:          st.hostUtil,
		HostVMs:           st.hostVMs,
		HostSpecs:         cfg.Hosts,
		VMAlive:           st.vmAlive,
		migModel:          cfg.Migration,
	}
	return st, nil
}

// PlanInitialPlacement computes the initial VM→host assignment the given
// configuration produces, without running any step: entry j is VM j's
// starting host, or -1 for a slot that starts dead. Harnesses use it to
// pin a run's exact starting world (e.g. to relabel it for metamorphic
// tests) via PlacementExplicit.
func PlanInitialPlacement(cfg Config) ([]int, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	st, err := newRunState(norm)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), st.vmHost...), nil
}

// place computes the initial assignment. Slots that start dead get host
// -1 and are skipped by every strategy; they join the world only through
// a lifecycle arrival.
func (st *runState) place() error {
	cfg := st.cfg
	skip := func(vm int) bool {
		if st.vmAlive != nil && !st.vmAlive[vm] {
			st.vmHost[vm] = -1
			return true
		}
		return false
	}
	hostRAM := make([]float64, len(cfg.Hosts))
	assign := func(vm, host int) {
		st.vmHost[vm] = host
		st.hostVMs[host] = append(st.hostVMs[host], vm)
		hostRAM[host] += cfg.VMs[vm].RAMMB
	}
	fits := func(vm, host int) bool {
		return hostRAM[host]+cfg.VMs[vm].RAMMB <= cfg.Hosts[host].RAMMB
	}
	firstFit := func(vm int) error {
		for h := range cfg.Hosts {
			if fits(vm, h) {
				assign(vm, h)
				return nil
			}
		}
		return fmt.Errorf("sim: VM %d (%.0f MiB) does not fit on any host", vm, cfg.VMs[vm].RAMMB)
	}
	switch cfg.InitialPlacement {
	case PlacementRandom:
		r := rand.New(rand.NewSource(cfg.Seeds().Placement()))
		for vm := range cfg.VMs {
			if skip(vm) {
				continue
			}
			placed := false
			for try := 0; try < 4*len(cfg.Hosts); try++ {
				h := r.Intn(len(cfg.Hosts))
				if fits(vm, h) {
					assign(vm, h)
					placed = true
					break
				}
			}
			if !placed {
				if err := firstFit(vm); err != nil {
					return err
				}
			}
		}
	case PlacementRoundRobin:
		for vm := range cfg.VMs {
			if skip(vm) {
				continue
			}
			placed := false
			for off := 0; off < len(cfg.Hosts); off++ {
				h := (vm + off) % len(cfg.Hosts)
				if fits(vm, h) {
					assign(vm, h)
					placed = true
					break
				}
			}
			if !placed {
				return fmt.Errorf("sim: VM %d does not fit on any host", vm)
			}
		}
	case PlacementFirstFit:
		for vm := range cfg.VMs {
			if skip(vm) {
				continue
			}
			if err := firstFit(vm); err != nil {
				return err
			}
		}
	case PlacementExplicit:
		for vm, h := range cfg.InitialAssignment {
			if skip(vm) {
				continue
			}
			if !fits(vm, h) {
				return fmt.Errorf("sim: explicit assignment overcommits host %d at VM %d", h, vm)
			}
			assign(vm, h)
		}
	default:
		return fmt.Errorf("sim: unknown placement %v", cfg.InitialPlacement)
	}
	return nil
}

// step executes one τ-interval: sample utilizations, let the policy decide,
// execute migrations, and integrate costs. Migrations take effect within
// the interval they are ordered in (live migration completes in seconds,
// τ is minutes), so a policy that reacts to an overload in the same step
// prevents that interval's overload downtime — the reason reactive
// heuristics show zero overloaded host-steps in the metrics.
func (st *runState) step(t int, p Policy) (StepMetrics, *Feedback, error) {
	cfg := st.cfg
	tau := cfg.StepSeconds

	// 0. Capture pre-step host activity and slot liveness: lifecycle
	// events (and later migrations) are the only things that change them,
	// so the before/after comparison yields this step's transitions for
	// the tracer's wake/sleep lists and the checker's churn audit.
	if st.tracer != nil {
		st.traceExec = st.traceExec[:0]
		st.traceRej = st.traceRej[:0]
		for i := range st.hostVMs {
			st.prevActive[i] = len(st.hostVMs[i]) > 0
		}
	}
	if st.checker != nil {
		for i := range st.hostVMs {
			st.checkPrevUp[i] = len(st.hostVMs[i]) > 0
		}
		copy(st.checkPrevLive, st.vmAlive)
	}

	// 1. Read the failure schedule, apply this step's lifecycle events,
	// then read utilization samples. Failures come first so an arrival
	// never places onto a host that is down this interval; departures
	// come before arrivals so the capacity they free is usable at once.
	// HostFailed stays nil on a step with no outage: no reader scans M flags.
	for i := range st.hostFailed {
		st.hostFailed[i] = false
	}
	st.snap.HostFailed = nil
	for _, f := range cfg.Failures {
		if t >= f.From && t < f.Until {
			st.hostFailed[f.Host] = true
			st.snap.HostFailed = st.hostFailed
		}
	}
	st.arrived = st.arrived[:0]
	st.departed = st.departed[:0]
	for st.lifeIdx < len(cfg.Lifecycle) && cfg.Lifecycle[st.lifeIdx].Step <= t {
		ev := cfg.Lifecycle[st.lifeIdx]
		st.lifeIdx++
		switch ev.Kind {
		case VMArrive:
			if !st.vmAlive[ev.VM] && !st.arrivalPending(ev.VM) {
				st.pendingArr = append(st.pendingArr, ev)
			}
		case VMDepart:
			if st.vmAlive[ev.VM] {
				st.depart(ev.VM)
			} else {
				st.cancelArrival(ev.VM)
			}
		}
	}
	// This step's samples are row t − stageFrom of the stage.
	k := t - st.stageFrom
	if k < 0 || k >= stageSteps {
		st.refillStage(t)
		k = 0
	}
	samples := st.stage[k*len(cfg.VMs) : (k+1)*len(cfg.VMs)]
	for j, u := range samples {
		st.stepDowntime[j] = 0
		if st.vmAlive != nil && !st.vmAlive[j] {
			st.vmUtil[j] = 0
			st.vmMIPS[j] = 0
			continue
		}
		st.vmUtil[j] = u
		st.vmMIPS[j] = u * cfg.VMs[j].MIPS
	}
	st.placeArrivals(t)
	st.recomputeHostUtil()

	// 2. Record the observed (pre-decision) utilization into the host and
	// VM history windows; MMT's adaptive detectors and the correlation-
	// based selection policies consume these.
	st.hostWin.push(st.hostUtil)
	st.vmWin.push(st.vmUtil)
	st.snap.HostHistory = st.hostWin.rows
	st.snap.VMHistory = st.vmWin.rows

	// 3. Ask the policy, timing the call. The checker's placement view is
	// captured here — after lifecycle, before migrations — so migration
	// accounting audits against the world the policy actually saw.
	if st.checker != nil {
		copy(st.checkPrevHost, st.vmHost)
	}
	st.snap.Step = t
	start := time.Now()
	migrations := p.Decide(&st.snap)
	decideDur := time.Since(start)
	decideSeconds := decideDur.Seconds()

	// 4. Execute migrations with feasibility checks.
	fb := &st.fb
	*fb = Feedback{Step: t, Executed: fb.Executed[:0], Rejected: fb.Rejected[:0]}
	st.touched = st.touched[:0]
	var resource float64
	for _, m := range migrations {
		if m.VM < 0 || m.VM >= len(cfg.VMs) || m.Dest < 0 || m.Dest >= len(cfg.Hosts) {
			fb.Rejected = append(fb.Rejected, m)
			if st.tracer != nil {
				from := -1
				if m.VM >= 0 && m.VM < len(cfg.VMs) {
					from = st.vmHost[m.VM]
				}
				st.traceRej = append(st.traceRej, trace.Migration{
					VM: m.VM, From: from, Dest: m.Dest, Reason: trace.RejectOutOfRange})
			}
			continue
		}
		if st.vmAlive != nil && !st.vmAlive[m.VM] {
			fb.Rejected = append(fb.Rejected, m)
			if st.tracer != nil {
				st.traceRej = append(st.traceRej, trace.Migration{
					VM: m.VM, From: st.vmHost[m.VM], Dest: m.Dest, Reason: trace.RejectDeadVM})
			}
			continue
		}
		if st.vmHost[m.VM] == m.Dest {
			continue // stay: free no-op
		}
		duplicate := st.migStep[m.VM] == t+1
		if duplicate || !st.snap.FitsOn(m.VM, m.Dest) {
			fb.Rejected = append(fb.Rejected, m)
			if st.tracer != nil {
				reason := trace.RejectInfeasible
				if duplicate {
					reason = trace.RejectDuplicate
				}
				st.traceRej = append(st.traceRej, trace.Migration{
					VM: m.VM, From: st.vmHost[m.VM], Dest: m.Dest, Reason: reason})
			}
			continue
		}
		st.migStep[m.VM] = t + 1
		// Live-migration downtime (Eq. 5 with the α model folded into
		// MigrationDowntimeFactor), plus the optional transfer-volume
		// price module.
		migSec := st.snap.MigrationSeconds(m.VM, m.Dest)
		st.stepDowntime[m.VM] += migSec * cfg.Cost.MigrationDowntimeFactor
		resource += cfg.Cost.TransferCost(cfg.VMs[m.VM].RAMMB)
		if st.tracer != nil {
			st.traceExec = append(st.traceExec, trace.Migration{
				VM: m.VM, From: st.vmHost[m.VM], Dest: m.Dest, Seconds: migSec})
		}
		st.touched = append(st.touched, st.vmHost[m.VM], m.Dest)
		st.move(m.VM, m.Dest)
		fb.Executed = append(fb.Executed, m)
	}
	// Only the hosts a migration touched changed their lists; re-summing
	// them in list order gives the bits a full recomputeHostUtil would.
	for _, i := range st.touched {
		st.sumHost(i)
	}

	// 5. Overload downtime (Eq. 4): every VM spending this interval on an
	// overloaded host accrues downtime proportional to the overload
	// severity — a host just past β barely degrades its VMs, one at full
	// saturation suspends them for the whole interval. VMs stranded on a
	// failed host are fully down.
	overloaded, failed := 0, 0
	for i := range st.hostUtil {
		if st.hostFailed[i] {
			failed++
			for _, j := range st.hostVMs[i] {
				st.stepDowntime[j] += tau
			}
			continue
		}
		if len(st.hostVMs[i]) == 0 {
			continue
		}
		if u := st.hostUtil[i]; u > cfg.OverloadThreshold {
			overloaded++
			severity := (u - cfg.OverloadThreshold) / (1 - cfg.OverloadThreshold)
			if severity > 1 {
				severity = 1
			}
			for _, j := range st.hostVMs[i] {
				st.stepDowntime[j] += tau * severity
			}
		}
	}

	// 6. Energy cost (Eq. 2): active hosts draw table power at their
	// (capped) utilization; empty hosts sleep and failed hosts are off.
	var energy float64
	for i := range st.hostUtil {
		if len(st.hostVMs[i]) == 0 || st.hostFailed[i] {
			continue
		}
		u := st.hostUtil[i]
		if u > 1 {
			u = 1
		}
		energy += cfg.Cost.EnergyCost(cfg.Hosts[i].Power.Power(u), tau)
		resource += cfg.Cost.MemoryCost(cfg.Hosts[i].RAMMB, tau)
	}

	// 7. SLA cost (Eq. 3): tiered refund on each VM's interval revenue.
	// Under the default per-interval accounting the refund is keyed on
	// the interval's own downtime fraction, keeping ΔC_v(s_{t-1}, s_t) a
	// true per-stage cost (Eq. 6); under SLACumulative it is keyed on
	// the cumulative downtime percentage, the paper's Eq. 3 verbatim.
	cumulative := cfg.Cost.Accounting == cost.SLACumulative
	var sla float64
	for j := range cfg.VMs {
		if st.vmAlive != nil && !st.vmAlive[j] {
			continue // dead slot: no service requested, no refund owed
		}
		st.requestedSec[j] += tau
		st.downtimeSec[j] += st.stepDowntime[j]
		if !cumulative && st.stepDowntime[j] == 0 {
			continue // RefundRate(0) is 0 (Validate keeps thresholds ≥ 0)
		}
		var frac float64
		if cumulative {
			frac = st.downtimeSec[j] / st.requestedSec[j]
		} else {
			frac = st.stepDowntime[j] / tau
		}
		if frac > 1 {
			frac = 1
		}
		sla += cfg.Cost.SLACost(frac, tau)
	}

	fb.EnergyCost = energy
	fb.SLACost = sla
	fb.ResourceCost = resource
	fb.StepCost = energy + sla + resource

	active := st.snap.ActiveHosts()
	if st.tracer != nil {
		st.emitStepEvent(t, fb, active, overloaded, failed, decideDur)
	}

	metrics := StepMetrics{
		Step:             t,
		EnergyCost:       energy,
		SLACost:          sla,
		ResourceCost:     resource,
		Migrations:       len(fb.Executed),
		Rejected:         len(fb.Rejected),
		ActiveHosts:      active,
		OverloadedHosts:  overloaded,
		FailedHosts:      failed,
		DecideSeconds:    decideSeconds,
		LiveVMs:          st.snap.LiveVMs(),
		Arrivals:         len(st.arrived),
		Departures:       len(st.departed),
		DeferredArrivals: len(st.pendingArr),
	}
	if st.checker != nil {
		st.checkScratch = StepCheck{
			Step:       t,
			Snapshot:   &st.snap,
			Feedback:   fb,
			Metrics:    metrics,
			PrevVMHost: st.checkPrevHost,
			PrevActive: st.checkPrevUp,
			PrevAlive:  st.checkPrevLive,
			Arrived:    st.arrived,
			Departed:   st.departed,
		}
		if err := st.checker.CheckStep(&st.checkScratch); err != nil {
			return metrics, fb, fmt.Errorf("invariant violated: %w", err)
		}
	}
	return metrics, fb, nil
}

// stageSteps is how many steps of samples the stage holds: eight float64
// samples are one 64-byte cache line of a trace.
const stageSteps = 8

// refillStage copies samples t … t+stageSteps−1 of every trace into the
// stage (Trace.At's values: wrapped, 0 for an empty trace). A step reading
// one sample per trace touches one cache line of each; the refill reads that
// line once for eight steps. t % len is computed once per run of equal
// trace lengths, and every slot is filled, dead or alive, because a slot
// may arrive within the block.
func (st *runState) refillStage(t int) {
	n := len(st.cfg.VMs)
	st.stageFrom = t
	traceLen, idx := -1, 0
	for j, tr := range st.cfg.Traces {
		if len(tr) != traceLen {
			traceLen = len(tr)
			if traceLen > 0 {
				idx = t % traceLen
			}
		}
		for k, i := 0, idx; k < stageSteps; k++ {
			var u float64
			if traceLen > 0 {
				u = tr[i]
				if i++; i == traceLen {
					i = 0
				}
			}
			st.stage[k*n+j] = u
		}
	}
}

// emitStepEvent writes the environment-side trace event for step t: what
// was executed or refused, the realised cost decomposition, and which
// hosts woke or went to sleep as a result of the step's migrations.
// Decide wall time is recorded only when the tracer opts into timings,
// keeping the default trace byte-identical across same-seed runs.
func (st *runState) emitStepEvent(t int, fb *Feedback, active, overloaded, failed int, decideDur time.Duration) {
	st.woken = st.woken[:0]
	st.slept = st.slept[:0]
	for i := range st.hostVMs {
		nowActive := len(st.hostVMs[i]) > 0
		switch {
		case nowActive && !st.prevActive[i]:
			st.woken = append(st.woken, i)
		case !nowActive && st.prevActive[i]:
			st.slept = append(st.slept, i)
		}
	}
	ev := trace.Event{
		Kind:            trace.KindStep,
		Step:            t,
		Digest:          trace.DigestString(trace.Digest64(t, st.vmHost, st.hostFailed)),
		Executed:        st.traceExec,
		Rejected:        st.traceRej,
		EnergyCost:      fb.EnergyCost,
		SLACost:         fb.SLACost,
		ResourceCost:    fb.ResourceCost,
		StepCost:        fb.StepCost,
		ActiveHosts:     active,
		OverloadedHosts: overloaded,
		FailedHosts:     failed,
		Woken:           st.woken,
		Slept:           st.slept,
	}
	if st.vmAlive != nil {
		st.departedIDs = st.departedIDs[:0]
		for _, d := range st.departed {
			st.departedIDs = append(st.departedIDs, d.VM)
		}
		ev.Arrived = st.arrived
		ev.Departed = st.departedIDs
		ev.LiveVMs = st.snap.LiveVMs()
	}
	if st.tracer.Timings() {
		ev.DecideNanos = decideDur.Nanoseconds()
	}
	st.tracer.Emit(&ev)
}

// obsFeed mirrors per-step metrics into an obs registry, labelled by
// policy name. A nil registry yields a nil feed whose record is a no-op,
// keeping the hot loop branch-cheap for unmetered runs.
type obsFeed struct {
	decideSeconds   *obs.Histogram
	steps           *obs.Counter
	migrations      *obs.Counter
	rejections      *obs.Counter
	overloadedSteps *obs.Counter
	failedSteps     *obs.Counter
	activeHosts     *obs.Gauge
}

func newObsFeed(reg *obs.Registry, policy string) *obsFeed {
	if reg == nil {
		return nil
	}
	l := obs.Labels{"policy": policy}
	return &obsFeed{
		decideSeconds: reg.Histogram("megh_sim_decide_seconds",
			"Wall-clock time the policy spent in Decide, per step.", l),
		steps: reg.Counter("megh_sim_steps_total",
			"Simulated τ-intervals executed.", l),
		migrations: reg.Counter("megh_sim_migrations_total",
			"Live migrations executed.", l),
		rejections: reg.Counter("megh_sim_rejections_total",
			"Requested migrations refused by feasibility checks.", l),
		overloadedSteps: reg.Counter("megh_sim_overloaded_host_steps_total",
			"Host-steps spent above the overload threshold β.", l),
		failedSteps: reg.Counter("megh_sim_failed_host_steps_total",
			"Host-steps spent in an injected outage.", l),
		activeHosts: reg.Gauge("megh_sim_active_hosts",
			"Hosts running at least one VM after the step's migrations.", l),
	}
}

func (f *obsFeed) record(m StepMetrics) {
	if f == nil {
		return
	}
	f.decideSeconds.Observe(m.DecideSeconds)
	f.steps.Inc()
	f.migrations.Add(int64(m.Migrations))
	f.rejections.Add(int64(m.Rejected))
	f.overloadedSteps.Add(int64(m.OverloadedHosts))
	f.failedSteps.Add(int64(m.FailedHosts))
	f.activeHosts.Set(float64(m.ActiveHosts))
}

// windows holds one trailing window of at most l samples per row, oldest
// first, in a flat slab of 2·l slots a row. Every row is pushed once per
// step, so one cursor [lo, end) serves them all: a push writes one slot per
// row, and only once every l+1 pushes do the newest l−1 samples move back to
// the row start. end takes only the values 1 … 2·l, with lo = max(0, end−l),
// so the row headers for each cursor position are built once: views[end−1]
// is the window set at that position, and a push just re-points rows. Each
// header has cap == len, so a policy appending to a window reallocates
// instead of writing into the slab.
type windows struct {
	slab  []float64
	views [][][]float64
	rows  [][]float64
	l     int
	end   int
}

func newWindows(n, l int) windows {
	stride := 2 * l
	w := windows{slab: make([]float64, n*stride), views: make([][][]float64, stride), l: l}
	headers := make([][]float64, stride*n)
	for end := 1; end <= stride; end++ {
		lo := max(0, end-l)
		view := headers[(end-1)*n : end*n]
		for r := range view {
			b := r * stride
			view[r] = w.slab[b+lo : b+end : b+end]
		}
		w.views[end-1] = view
	}
	return w
}

// push appends vals[r] to row r, evicting each row's oldest sample once full.
func (w *windows) push(vals []float64) {
	stride := 2 * w.l
	if w.end == stride {
		keep := w.l - 1
		for b := 0; b < len(w.slab); b += stride {
			copy(w.slab[b:b+keep], w.slab[b+stride-keep:b+stride])
		}
		w.end = keep
	}
	w.end++
	for r, x := range vals {
		w.slab[r*stride+w.end-1] = x
	}
	w.rows = w.views[w.end-1]
}

// depart takes live slot vm down: it leaves its host's list (the host may
// fall asleep), frees the RAM and MIPS it held, and reads host -1 until a
// lifecycle arrival brings it back.
func (st *runState) depart(vm int) {
	src := st.vmHost[vm]
	vms := st.hostVMs[src]
	for k, v := range vms {
		if v == vm {
			vms[k] = vms[len(vms)-1]
			st.hostVMs[src] = vms[:len(vms)-1]
			break
		}
	}
	st.vmHost[vm] = -1
	st.vmAlive[vm] = false
	st.departed = append(st.departed, Departure{VM: vm, Host: src})
}

// arrivalPending reports whether slot vm already waits in the deferred
// arrival queue.
func (st *runState) arrivalPending(vm int) bool {
	for _, e := range st.pendingArr {
		if e.VM == vm {
			return true
		}
	}
	return false
}

// cancelArrival drops slot vm's queued arrival, if any — a departure of a
// dead slot means "this instance is gone", including one still waiting for
// capacity.
func (st *runState) cancelArrival(vm int) {
	for k, e := range st.pendingArr {
		if e.VM == vm {
			st.pendingArr = append(st.pendingArr[:k], st.pendingArr[k+1:]...)
			return
		}
	}
}

// placeArrivals tries to place every queued arrival, in FIFO order, onto
// its pinned host or the first host with room in both dimensions at this
// step's demand. Unplaced arrivals stay queued for the next step.
func (st *runState) placeArrivals(t int) {
	if len(st.pendingArr) == 0 {
		return
	}
	kept := st.pendingArr[:0]
	for _, ev := range st.pendingArr {
		j := ev.VM
		u := st.cfg.Traces[j].At(t)
		demand := u * st.cfg.VMs[j].MIPS
		host := -1
		if ev.Host >= 0 {
			if st.hostFitsArrival(ev.Host, j, demand) {
				host = ev.Host
			}
		} else {
			for i := range st.cfg.Hosts {
				if st.hostFitsArrival(i, j, demand) {
					host = i
					break
				}
			}
		}
		if host < 0 {
			kept = append(kept, ev)
			continue
		}
		st.vmAlive[j] = true
		st.vmHost[j] = host
		st.hostVMs[host] = append(st.hostVMs[host], j)
		st.vmUtil[j] = u
		st.vmMIPS[j] = demand
		st.arrived = append(st.arrived, j)
	}
	st.pendingArr = kept
}

// hostFitsArrival reports whether host i can take arriving VM j at demand
// MIPS: not failed, and spare RAM and CPU at current occupancy.
func (st *runState) hostFitsArrival(i, j int, demand float64) bool {
	if st.hostFailed[i] {
		return false
	}
	var ram, mips float64
	for _, other := range st.hostVMs[i] {
		ram += st.cfg.VMs[other].RAMMB
		mips += st.vmMIPS[other]
	}
	return ram+st.cfg.VMs[j].RAMMB <= st.cfg.Hosts[i].RAMMB &&
		mips+demand <= st.cfg.Hosts[i].MIPS
}

// move reassigns VM j to host dest.
func (st *runState) move(j, dest int) {
	src := st.vmHost[j]
	vms := st.hostVMs[src]
	for k, v := range vms {
		if v == j {
			vms[k] = vms[len(vms)-1]
			st.hostVMs[src] = vms[:len(vms)-1]
			break
		}
	}
	st.vmHost[j] = dest
	st.hostVMs[dest] = append(st.hostVMs[dest], j)
}

func (st *runState) recomputeHostUtil() {
	for i := range st.hostUtil {
		st.sumHost(i)
	}
}

// sumHost sets host i's utilization from its VMs' demand, added in list
// order.
func (st *runState) sumHost(i int) {
	var mips float64
	for _, j := range st.hostVMs[i] {
		mips += st.vmMIPS[j]
	}
	st.hostUtil[i] = mips / st.cfg.Hosts[i].MIPS
}
