// Package invariant is the opt-in verification layer for the Megh
// reproduction (DESIGN.md §8). It holds machine-checked statements of the
// properties everything else silently assumes:
//
//   - SimChecker implements sim.Checker and audits the simulator's
//     conservation laws after every step — placement is a bijection, host
//     occupancy is the sum of its VMs, migration accounting balances, host
//     wake/sleep transitions are legal, and the cost decomposition adds up.
//   - The package's tests (lspi_test.go) probe the learner's sparse
//     Sherman–Morrison state against a dense Gauss–Jordan oracle: B must
//     remain the inverse of the accumulated T, the dense θ mirror must agree
//     with B·z, and a checkpoint round-trip must be lossless. The production
//     counterpart, internal/health, samples only the θ = B·z check.
//
// Both are pure observers: enabling them never changes a decision, a cost,
// or a random draw, so a checked run is byte-identical to an unchecked one.
// The simulator aborts the run on the first violation — once a conservation
// law breaks, every later metric is garbage.
package invariant

import (
	"fmt"
	"math"

	"megh/internal/sim"
)

// SimChecker validates the simulator's conservation laws. The zero value is
// ready to use; pass it as sim.Config.Checker. It is not safe for use by
// concurrent Run calls — give each run its own checker.
type SimChecker struct {
	// Steps counts the intervals validated, so tests can assert the
	// checker actually ran.
	Steps int

	vmSeen   []int
	migrated []bool
	arrivals []int
	departs  []int
}

// NewSimChecker returns a fresh checker.
func NewSimChecker() *SimChecker { return &SimChecker{} }

// CheckStep audits one completed step. Any non-nil return aborts the run.
func (c *SimChecker) CheckStep(sc *sim.StepCheck) error {
	s := sc.Snapshot
	nVMs, nHosts := s.NumVMs(), s.NumHosts()
	if len(sc.PrevVMHost) != nVMs || len(sc.PrevActive) != nHosts {
		return fmt.Errorf("pre-step views sized %d/%d, world is %d×%d",
			len(sc.PrevVMHost), len(sc.PrevActive), nVMs, nHosts)
	}
	if cap(c.vmSeen) < nVMs {
		c.vmSeen = make([]int, nVMs)
		c.migrated = make([]bool, nVMs)
		c.arrivals = make([]int, nVMs)
		c.departs = make([]int, nVMs)
	}
	c.vmSeen = c.vmSeen[:nVMs]
	c.migrated = c.migrated[:nVMs]
	c.arrivals = c.arrivals[:nVMs]
	c.departs = c.departs[:nVMs]
	for j := range c.vmSeen {
		c.vmSeen[j] = 0
		c.migrated[j] = false
		c.arrivals[j] = 0
		c.departs[j] = 0
	}

	if err := c.checkPlacement(s); err != nil {
		return err
	}
	if err := c.checkOccupancy(s); err != nil {
		return err
	}
	if err := c.checkLifecycle(sc); err != nil {
		return err
	}
	if err := c.checkMigrations(sc); err != nil {
		return err
	}
	if err := c.checkActivity(sc); err != nil {
		return err
	}
	if err := c.checkCosts(sc); err != nil {
		return err
	}
	c.Steps++
	return nil
}

// checkPlacement verifies the VM→host map and the host→VM lists describe
// the same bijection over the live population: every live VM appears in
// exactly one host list (the one VMHost names), and every dead slot reads
// host -1 and sits in no list.
func (c *SimChecker) checkPlacement(s *sim.Snapshot) error {
	for i := range s.HostVMs {
		for _, j := range s.HostVMs[i] {
			if j < 0 || j >= len(s.VMHost) {
				return fmt.Errorf("host %d lists unknown VM %d", i, j)
			}
			c.vmSeen[j]++
			if s.VMHost[j] != i {
				return fmt.Errorf("VM %d listed on host %d but VMHost says %d", j, i, s.VMHost[j])
			}
		}
	}
	for j, n := range c.vmSeen {
		if !s.VMLive(j) {
			if n != 0 {
				return fmt.Errorf("dead VM %d appears in %d host lists, want 0", j, n)
			}
			if s.VMHost[j] != -1 {
				return fmt.Errorf("dead VM %d has host %d, want -1", j, s.VMHost[j])
			}
			if s.VMUtil[j] != 0 || s.VMMIPS[j] != 0 {
				return fmt.Errorf("dead VM %d demands util %g / %g MIPS, want 0",
					j, s.VMUtil[j], s.VMMIPS[j])
			}
			continue
		}
		if n != 1 {
			return fmt.Errorf("VM %d appears in %d host lists, want exactly 1", j, n)
		}
		if h := s.VMHost[j]; h < 0 || h >= len(s.HostVMs) {
			return fmt.Errorf("VM %d placed on unknown host %d", j, h)
		}
	}
	return nil
}

// checkLifecycle verifies population churn is conservative: every liveness
// flip is witnessed by exactly the right arrival/departure events, arrivals
// land on an up host, and the step metrics agree with the event lists. All
// of it degenerates to a no-op for fixed-population runs (VMAlive nil).
func (c *SimChecker) checkLifecycle(sc *sim.StepCheck) error {
	s := sc.Snapshot
	if s.VMAlive == nil {
		if len(sc.Arrived)+len(sc.Departed) > 0 {
			return fmt.Errorf("lifecycle events reported in a fixed-population run")
		}
		return nil
	}
	live := 0
	for j := range s.VMHost {
		if s.VMLive(j) {
			live++
		}
	}
	if got := sc.Metrics.LiveVMs; got != live {
		return fmt.Errorf("metrics report %d live VMs, recount gives %d", got, live)
	}
	if len(sc.PrevAlive) != len(s.VMAlive) {
		return fmt.Errorf("pre-step liveness sized %d, world has %d slots",
			len(sc.PrevAlive), len(s.VMAlive))
	}
	for _, j := range sc.Arrived {
		if j < 0 || j >= len(s.VMHost) {
			return fmt.Errorf("arrival of unknown VM %d", j)
		}
		c.arrivals[j]++
		if c.arrivals[j] > 1 {
			return fmt.Errorf("VM %d arrived twice in one step", j)
		}
		if !s.VMAlive[j] {
			return fmt.Errorf("VM %d arrived but is not alive", j)
		}
		h := s.VMHost[j]
		if h < 0 || h >= len(s.HostVMs) {
			return fmt.Errorf("VM %d arrived onto unknown host %d", j, h)
		}
		if len(s.HostFailed) > 0 && s.HostFailed[h] {
			return fmt.Errorf("VM %d arrived onto failed host %d", j, h)
		}
	}
	for _, d := range sc.Departed {
		if d.VM < 0 || d.VM >= len(s.VMHost) {
			return fmt.Errorf("departure of unknown VM %d", d.VM)
		}
		c.departs[d.VM]++
		if c.departs[d.VM] > 1 {
			return fmt.Errorf("VM %d departed twice in one step", d.VM)
		}
		if d.Host < 0 || d.Host >= len(s.HostVMs) {
			return fmt.Errorf("VM %d departed from unknown host %d", d.VM, d.Host)
		}
		if !sc.PrevAlive[d.VM] {
			return fmt.Errorf("VM %d departed but was not alive at step start", d.VM)
		}
	}
	for j := range s.VMAlive {
		was, is := sc.PrevAlive[j], s.VMAlive[j]
		a, d := c.arrivals[j], c.departs[j]
		switch {
		case !was && is: // born this step
			if a != 1 || d != 0 {
				return fmt.Errorf("VM %d became alive with %d arrivals / %d departures", j, a, d)
			}
		case was && !is: // died this step
			if a != 0 || d != 1 {
				return fmt.Errorf("VM %d died with %d arrivals / %d departures", j, a, d)
			}
		case was && is: // alive throughout, or departed and re-arrived
			if a != d {
				return fmt.Errorf("VM %d stayed alive with %d arrivals / %d departures", j, a, d)
			}
		default: // dead throughout
			if a != 0 || d != 0 {
				return fmt.Errorf("VM %d stayed dead with %d arrivals / %d departures", j, a, d)
			}
		}
	}
	if got, want := sc.Metrics.Arrivals, len(sc.Arrived); got != want {
		return fmt.Errorf("metrics count %d arrivals, step lists %d", got, want)
	}
	if got, want := sc.Metrics.Departures, len(sc.Departed); got != want {
		return fmt.Errorf("metrics count %d departures, step lists %d", got, want)
	}
	if sc.Metrics.DeferredArrivals < 0 {
		return fmt.Errorf("metrics count %d deferred arrivals", sc.Metrics.DeferredArrivals)
	}
	return nil
}

// checkOccupancy verifies each host's published utilization equals, bit for
// bit, the sum of its VMs' demanded MIPS over capacity added in list order as
// the simulator adds it, and that RAM is never overcommitted (the feasibility
// check every placement and migration path must have enforced).
func (c *SimChecker) checkOccupancy(s *sim.Snapshot) error {
	for i := range s.HostVMs {
		var mips, ram float64
		for _, j := range s.HostVMs[i] {
			mips += s.VMMIPS[j]
			ram += s.VMSpecs[j].RAMMB
		}
		want := mips / s.HostSpecs[i].MIPS
		if s.HostUtil[i] != want {
			return fmt.Errorf("host %d utilization %g, sum of its VMs gives %g",
				i, s.HostUtil[i], want)
		}
		if capMB := s.HostSpecs[i].RAMMB; ram > capMB*(1+1e-12) {
			return fmt.Errorf("host %d RAM overcommitted: %g MiB placed on %g MiB", i, ram, capMB)
		}
		if math.IsNaN(s.HostUtil[i]) || s.HostUtil[i] < 0 {
			return fmt.Errorf("host %d utilization %g invalid", i, s.HostUtil[i])
		}
	}
	return nil
}

// checkMigrations verifies migration accounting balances: each executed
// migration moved its VM from its pre-step host to a live destination, no
// VM moved twice, every unmigrated VM stayed put, and the step metrics
// agree with the feedback lists.
func (c *SimChecker) checkMigrations(sc *sim.StepCheck) error {
	s := sc.Snapshot
	for _, m := range sc.Feedback.Executed {
		if m.VM < 0 || m.VM >= len(s.VMHost) || m.Dest < 0 || m.Dest >= len(s.HostVMs) {
			return fmt.Errorf("executed migration %+v out of range", m)
		}
		if c.migrated[m.VM] {
			return fmt.Errorf("VM %d executed twice in one step", m.VM)
		}
		c.migrated[m.VM] = true
		if !s.VMLive(m.VM) {
			return fmt.Errorf("dead VM %d executed a migration", m.VM)
		}
		if sc.PrevVMHost[m.VM] == m.Dest {
			return fmt.Errorf("executed migration %+v is a stay (must be dropped, not charged)", m)
		}
		if s.VMHost[m.VM] != m.Dest {
			return fmt.Errorf("VM %d executed to host %d but sits on %d", m.VM, m.Dest, s.VMHost[m.VM])
		}
		if len(s.HostFailed) > 0 && s.HostFailed[m.Dest] {
			return fmt.Errorf("VM %d migrated onto failed host %d", m.VM, m.Dest)
		}
	}
	for j, h := range s.VMHost {
		if !c.migrated[j] && h != sc.PrevVMHost[j] {
			return fmt.Errorf("VM %d moved %d→%d without an executed migration", j, sc.PrevVMHost[j], h)
		}
	}
	if got, want := sc.Metrics.Migrations, len(sc.Feedback.Executed); got != want {
		return fmt.Errorf("metrics count %d migrations, feedback lists %d", got, want)
	}
	if got, want := sc.Metrics.Rejected, len(sc.Feedback.Rejected); got != want {
		return fmt.Errorf("metrics count %d rejections, feedback lists %d", got, want)
	}
	return nil
}

// checkActivity verifies the host wake/sleep state machine: activity is
// exactly "runs at least one VM", and a host changes state only by gaining
// its first VM (the destination of an executed migration or a lifecycle
// arrival) or losing its last one (the source of an executed migration or
// a lifecycle departure).
func (c *SimChecker) checkActivity(sc *sim.StepCheck) error {
	s := sc.Snapshot
	active := 0
	for i := range s.HostVMs {
		nowActive := len(s.HostVMs[i]) > 0
		if nowActive {
			active++
		}
		if nowActive == sc.PrevActive[i] {
			continue
		}
		legal := false
		for _, m := range sc.Feedback.Executed {
			if nowActive && m.Dest == i {
				legal = true
				break
			}
			if !nowActive && sc.PrevVMHost[m.VM] == i {
				legal = true
				break
			}
		}
		if !legal && nowActive {
			for _, j := range sc.Arrived {
				if s.VMHost[j] == i {
					legal = true
					break
				}
			}
		}
		if !legal && !nowActive {
			for _, d := range sc.Departed {
				if d.Host == i {
					legal = true
					break
				}
			}
		}
		if !legal {
			return fmt.Errorf("host %d changed activity %v→%v with no migration or lifecycle event touching it",
				i, sc.PrevActive[i], nowActive)
		}
	}
	if got := sc.Metrics.ActiveHosts; got != active {
		return fmt.Errorf("metrics report %d active hosts, recount gives %d", got, active)
	}
	return nil
}

// checkCosts verifies the cost decomposition: every component is finite and
// non-negative, the step total is their sum to within a ULP-scaled
// tolerance, and the metrics echo the feedback exactly.
func (c *SimChecker) checkCosts(sc *sim.StepCheck) error {
	fb := sc.Feedback
	for _, part := range [...]struct {
		name string
		v    float64
	}{
		{"energy", fb.EnergyCost},
		{"SLA", fb.SLACost},
		{"resource", fb.ResourceCost},
		{"step", fb.StepCost},
	} {
		if math.IsNaN(part.v) || math.IsInf(part.v, 0) || part.v < 0 {
			return fmt.Errorf("%s cost %g invalid", part.name, part.v)
		}
	}
	sum := fb.EnergyCost + fb.SLACost + fb.ResourceCost
	if !withinUlps(fb.StepCost, sum, 1) {
		return fmt.Errorf("step cost %g ≠ energy %g + SLA %g + resource %g (= %g)",
			fb.StepCost, fb.EnergyCost, fb.SLACost, fb.ResourceCost, sum)
	}
	m := sc.Metrics
	if m.EnergyCost != fb.EnergyCost || m.SLACost != fb.SLACost ||
		m.ResourceCost != fb.ResourceCost {
		return fmt.Errorf("metrics cost decomposition diverges from feedback")
	}
	return nil
}

// withinUlps reports whether a and b differ by at most n representable
// float64 steps at their magnitude — the "1 ULP-scaled tolerance" the cost
// identity is allowed, tight enough that any real accounting bug trips it.
func withinUlps(a, b float64, n int) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= float64(n)*ulpAt(scale)
}

// ulpAt returns the distance to the next representable float64 above |x|.
func ulpAt(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}
