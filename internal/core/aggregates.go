package core

import (
	"math"
	"sort"

	"megh/internal/sim"
)

// This file holds the learner's per-host tables, the state the scan in
// kernels.go reads: each host's committed RAM and demanded MIPS, its
// capacities, its live-VM count and active flag, the failed-host penalty
// mask penAll, and activeList, the ascending list of active hosts.
// refreshHostAggregates brings them to a new snapshot in one sweep,
// O(N + active hosts):
//
//   - Utilization moves on nearly every VM every step, so every occupied
//     host's sums are stale every step. The sums and counts of the hosts
//     that were active are zeroed — a host outside activeList holds zeros
//     already — and one ascending-VM pass over VMHost accumulates them
//     again. The addition order is a function of the snapshot alone, so the
//     sums never depend on what the tables held before (float addition is
//     not associative: subtract-then-re-add patching would make them).
//   - A host is active when a live VM's VMHost names it. Flags and the list
//     change only for hosts whose count crossed zero.
//   - Capacities refresh by HostSpecs backing identity, and penAll only when
//     a host failed this step or the last.
//
// A new learner's zeroed tables already satisfy the sweep's entry state, so
// the first refresh is the same sweep. Speculative charges made inside a
// decide (chooseFromCandidates charging a chosen destination) go through an
// undo log that restores the exact pre-charge values — (x+y)−y is not
// bitwise x — so every refresh starts from snapshot-derived state.

// aggUndo records one host's aggregate state before a speculative charge.
type aggUndo struct {
	host      int
	ram, mips float64
	active    bool
}

// refreshHostAggregates brings the per-host tables to snapshot s: roll back
// last step's speculative charges, then sweep (see the file comment).
// Postcondition: hostRAM / hostMIPS hold each host's committed RAM and
// demanded MIPS summed in ascending VM order, hostVMCount the live VMs whose
// VMHost names it, hostActive is set exactly where that count is positive,
// activeList is the ascending list of those hosts, and penAll is +Inf
// exactly on the failed hosts and 0 elsewhere.
//
// Capacities are compared by backing-array identity: a caller may reuse a
// HostSpecs slice across snapshots only with unchanged contents (the
// simulator's static specs), while per-request decoders allocate fresh
// slices, which the pointer test catches.
func (m *Megh) refreshHostAggregates(s *sim.Snapshot) {
	m.undoSpeculative()
	if !sameHostSpecs(m.prevHostSpecs, s.HostSpecs) {
		for i := range m.hostRAMCap {
			m.hostRAMCap[i] = s.HostSpecs[i].RAMMB
			m.hostMIPSCap[i] = s.HostSpecs[i].MIPS
		}
		m.prevHostSpecs = s.HostSpecs
	}
	if failed := anyFailed(s.HostFailed); failed || m.penFailed {
		inf := math.Inf(1)
		for i := range m.penAll {
			m.penAll[i] = 0
			if failed && s.HostFailed[i] {
				m.penAll[i] = inf
			}
		}
		m.penFailed = failed
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
	// Only hosts whose count crossed zero change flag and list membership.
	kept := m.activeList[:0]
	for _, h := range m.activeList {
		if m.hostVMCount[h] > 0 {
			kept = append(kept, h)
		} else {
			m.hostActive[h] = false
		}
	}
	m.activeList = kept
	for _, h := range m.wokenHosts {
		m.hostActive[h] = true
		m.activeInsert(h)
	}
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
	})
	m.hostRAM[dest] += s.VMSpecs[vm].RAMMB
	m.hostMIPS[dest] += s.VMMIPS[vm]
	if !m.hostActive[dest] {
		m.hostActive[dest] = true
		m.activeInsert(dest)
	}
}

// undoSpeculative rolls the speculative charges back in reverse order,
// restoring the exact recorded values — (x+y)−y is not bitwise x, so
// arithmetic reversal would make the sums depend on the charges.
func (m *Megh) undoSpeculative() {
	for i := len(m.undoLog) - 1; i >= 0; i-- {
		u := m.undoLog[i]
		m.hostRAM[u.host] = u.ram
		m.hostMIPS[u.host] = u.mips
		if !u.active && m.hostActive[u.host] {
			m.hostActive[u.host] = false
			m.activeRemove(u.host)
		}
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
