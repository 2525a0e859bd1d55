package core

import (
	"math"
	"sort"

	"megh/internal/sim"
)

// This file holds aggregate reuse: refreshHostAggregates used to rebuild
// every per-host feasibility table from scratch on every Decide — O(N+M).
// Two tiers:
//
//   - sweep: utilization moves on nearly every VM every step, so every
//     occupied host's sums are stale every step and there is nothing to
//     gain from finding out which. The sums of the hosts that were active
//     are zeroed and one ascending-VM pass accumulates them again — the
//     exact addition sequence the full rebuild uses, so they are bitwise
//     identical to a rebuild's (float addition is not associative, so
//     subtract-then-readd patching would NOT be). What is reused is
//     everything per host that rarely moves: flags, penalties, capacities
//     and the active list are touched only for hosts whose VM count
//     crossed zero. O(N + active hosts).
//   - rebuild: the historical full pass, taken on the first call and when a
//     host failure is (or was) present.
//
// Speculative per-step mutations (chooseFromCandidates charging a chosen
// destination) are recorded in an undo log that restores the exact
// pre-mutation values — again because (x+y)−y is not bitwise x — so the
// next refresh starts from the clean snapshot-derived state.

// aggUndo records one host's aggregate state before a speculative charge.
type aggUndo struct {
	host      int
	ram, mips float64
	active    bool
	pen       float64 // penActive before the charge
}

// refreshHostAggregates (re)establishes the flat per-host feasibility
// tables for snapshot s: roll back last step's speculative charges, then
// sweep, or rebuild where only that is sound (see the file comment).
// Postcondition, identical across tiers bit for bit: hostRAM / hostMIPS
// hold each host's committed RAM and demanded MIPS, hostActive /
// hostBlocked and their penalty mirrors match the snapshot, and activeList
// is the ascending list of active hosts.
func (m *Megh) refreshHostAggregates(s *sim.Snapshot) {
	m.undoSpeculative()
	if !m.aggValid || !m.sweepHostAggregates(s) {
		m.rebuildHostAggregates(s)
	}
	m.aggValid = true
}

// rebuildHostAggregates is the full O(N+M) pass, and the bitwise reference
// the sweep reproduces: per-host zeroing and flag/capacity refresh,
// then one ascending-VM accumulation.
func (m *Megh) rebuildHostAggregates(s *sim.Snapshot) {
	failed := len(s.HostFailed) > 0
	anyBlocked := false
	inf := math.Inf(1)
	m.activeList = m.activeList[:0]
	for i := 0; i < s.NumHosts(); i++ {
		m.hostRAM[i] = 0
		m.hostMIPS[i] = 0
		nVMs := len(s.HostVMs[i])
		m.hostVMCount[i] = nVMs
		act := nVMs > 0
		m.hostActive[i] = act
		m.hostRAMCap[i] = s.HostSpecs[i].RAMMB
		m.hostMIPSCap[i] = s.HostSpecs[i].MIPS
		blk := failed && s.HostFailed[i]
		m.hostBlocked[i] = blk
		anyBlocked = anyBlocked || blk
		if blk {
			m.penAll[i] = inf
		} else {
			m.penAll[i] = 0
		}
		if blk || !act {
			m.penActive[i] = inf
		} else {
			m.penActive[i] = 0
		}
		if act {
			m.activeList = append(m.activeList, i)
		}
	}
	for j := 0; j < s.NumVMs(); j++ {
		h := s.VMHost[j]
		if h >= 0 { // dead slots (lifecycle runs) occupy nothing
			m.hostRAM[h] += s.VMSpecs[j].RAMMB
			m.hostMIPS[h] += s.VMMIPS[j]
		}
	}
	m.aggAnyBlocked = anyBlocked
	m.prevHostSpecs = s.HostSpecs
}

// sweepHostAggregates brings the aggregates from the previous snapshot's
// state to s, returning false when only a full rebuild is sound (any host
// failure now or at the last rebuild — failures also flow into penalties
// and candidate blocking, and are rare enough that the rebuild is the right
// price). It relies on what every refresh leaves behind: a host outside
// activeList has zero sums and a zero count. Capacities refresh by
// backing-array identity: a caller may reuse a HostSpecs slice across
// snapshots only with unchanged contents (the simulator's static specs),
// while per-request decoders allocate fresh slices, which the pointer test
// catches.
func (m *Megh) sweepHostAggregates(s *sim.Snapshot) bool {
	if m.aggAnyBlocked || anyFailed(s.HostFailed) {
		return false
	}
	if !sameHostSpecs(m.prevHostSpecs, s.HostSpecs) {
		for i := 0; i < s.NumHosts(); i++ {
			m.hostRAMCap[i] = s.HostSpecs[i].RAMMB
			m.hostMIPSCap[i] = s.HostSpecs[i].MIPS
		}
		m.prevHostSpecs = s.HostSpecs
	}
	for _, h := range m.activeList {
		m.hostRAM[h] = 0
		m.hostMIPS[h] = 0
		m.hostVMCount[h] = 0
	}
	m.wokenHosts = m.wokenHosts[:0]
	for j, h := range s.VMHost {
		if h < 0 { // dead slots (lifecycle runs) occupy nothing
			continue
		}
		m.hostRAM[h] += s.VMSpecs[j].RAMMB
		m.hostMIPS[h] += s.VMMIPS[j]
		if m.hostVMCount[h] == 0 && !m.hostActive[h] {
			m.wokenHosts = append(m.wokenHosts, h)
		}
		m.hostVMCount[h]++
	}
	// Only hosts whose count crossed zero change flag, penalty and list.
	inf := math.Inf(1)
	kept := m.activeList[:0]
	for _, h := range m.activeList {
		if m.hostVMCount[h] > 0 {
			kept = append(kept, h)
			continue
		}
		m.hostActive[h] = false
		m.penActive[h] = inf
	}
	m.activeList = kept
	for _, h := range m.wokenHosts {
		m.hostActive[h] = true
		m.penActive[h] = 0
		m.activeInsert(h)
	}
	return true
}

// speculate charges VM vm's chosen migration against destination host dest
// so later candidates this step see the post-move aggregates, logging the
// pre-charge values for exact restoration at the next refresh.
func (m *Megh) speculate(s *sim.Snapshot, vm, dest int) {
	m.undoLog = append(m.undoLog, aggUndo{
		host:   dest,
		ram:    m.hostRAM[dest],
		mips:   m.hostMIPS[dest],
		active: m.hostActive[dest],
		pen:    m.penActive[dest],
	})
	m.hostRAM[dest] += s.VMSpecs[vm].RAMMB
	m.hostMIPS[dest] += s.VMMIPS[vm]
	if !m.hostActive[dest] {
		m.hostActive[dest] = true
		m.penActive[dest] = 0
		m.activeInsert(dest)
	}
}

// undoSpeculative rolls the speculative charges back in reverse order,
// restoring the exact recorded values — (x+y)−y is not bitwise x, so
// arithmetic reversal would poison the sweep's bitwise guarantee.
func (m *Megh) undoSpeculative() {
	for i := len(m.undoLog) - 1; i >= 0; i-- {
		u := m.undoLog[i]
		m.hostRAM[u.host] = u.ram
		m.hostMIPS[u.host] = u.mips
		if !u.active && m.hostActive[u.host] {
			m.hostActive[u.host] = false
			m.activeRemove(u.host)
		}
		m.penActive[u.host] = u.pen
	}
	m.undoLog = m.undoLog[:0]
}

// activeInsert adds host h to the sorted active list.
func (m *Megh) activeInsert(h int) {
	i := sort.SearchInts(m.activeList, h)
	if i < len(m.activeList) && m.activeList[i] == h {
		return
	}
	m.activeList = append(m.activeList, 0)
	copy(m.activeList[i+1:], m.activeList[i:])
	m.activeList[i] = h
}

// activeRemove drops host h from the sorted active list.
func (m *Megh) activeRemove(h int) {
	i := sort.SearchInts(m.activeList, h)
	if i < len(m.activeList) && m.activeList[i] == h {
		m.activeList = append(m.activeList[:i], m.activeList[i+1:]...)
	}
}

// anyFailed reports whether any host is marked failed.
func anyFailed(failed []bool) bool {
	for _, f := range failed {
		if f {
			return true
		}
	}
	return false
}

// sameHostSpecs reports whether two spec slices share identical backing
// (same length, same first element address).
func sameHostSpecs(a, b []sim.HostSpec) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
