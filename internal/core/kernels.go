package core

import "megh/internal/sim"

// This file holds the candidate-scoring sweep: one pass over VM j's θ row,
// cells [base, base+M), gathering the feasible destinations, their Q values
// and the row minimum. The stay destination cur is always feasible; another
// host k is feasible when it has not failed (a failed host delivers no
// capacity: proposing it burns the step's migration budget on a certain
// rejection and feeds the LSPI update an action that never executed), the
// VM's RAM fits, placing it leaves k's CPU at or under the overload
// threshold β (a policy must not manufacture overloads), and, in an
// activeOnly sweep, k is already active. Feasibility reads only the flat
// per-host aggregate arrays refreshHostAggregates filled (committed
// RAM/MIPS, capacities and the blocked/active penalty mirrors), with
// arithmetic identical to scanRowScalar, the oracle in kernels_test.go.
// Returned slices alias the learner's scratch.
//
// Both kernels are 4-wide blocked loops with a scalar tail for short rows
// and remainders; they hoist bounds checks and replace the blocked/active
// branches with a branch-free penalty mask. sampleDestination picks between
// them by the input: the active-list walk when the VM's host is active, the
// full-grid sweep otherwise. The one-host-at-a-time loop they replaced lives
// on in kernels_test.go as the oracle its row-level differential pins them
// to, bit for bit.
//
// Bitwise identity rests on three IEEE-754 facts, each load-bearing:
//
//   - x + 0 == x bitwise for every finite x (the aggregates are finite by
//     Config/StateRequest validation), so folding a 0-penalty into the RAM
//     test changes nothing, while a +Inf penalty forces the test infeasible
//     — exactly what the blocked/inactive branches did.
//   - The MIPS test keeps its division form, (hostMIPS[k]+mipsJ)/mipsCap[k],
//     never the multiplied-out one: a/b > c and a > c*b round differently.
//   - The row minimum uses the same strict-less, sequential comparison
//     order, via sparse.PagedVector.GatherMin.

// scanRowUnrolled is the 4-wide unrolled full-grid sweep. The penalty
// arrays (penAll for blocked hosts, penActive additionally for inactive
// ones) fold the boolean branches into the RAM comparison: +Inf makes the
// test infeasible, 0 leaves it bit-for-bit unchanged. The k == cur escape
// is OR'd per lane, mirroring the scalar loop's skip of all feasibility
// tests for the stay destination.
func (m *Megh) scanRowUnrolled(s *sim.Snapshot, j, cur, base int, activeOnly bool) (feasible []int, qs []float64, minQ float64) {
	n := m.cfg.NumHosts
	ramJ := s.VMSpecs[j].RAMMB
	mipsJ := s.VMMIPS[j]
	beta := s.OverloadThreshold
	hostRAM := m.hostRAM[:n:n]
	hostMIPS := m.hostMIPS[:n:n]
	ramCap := m.hostRAMCap[:n:n]
	mipsCap := m.hostMIPSCap[:n:n]
	pen := m.penAll
	if activeOnly {
		pen = m.penActive
	}
	pen = pen[:n:n]
	feasible = m.feasibleScratch[:0]
	k := 0
	for ; k+4 <= n; k += 4 {
		ok0 := k == cur || (!(hostRAM[k]+ramJ+pen[k] > ramCap[k]) &&
			!((hostMIPS[k]+mipsJ)/mipsCap[k] > beta))
		ok1 := k+1 == cur || (!(hostRAM[k+1]+ramJ+pen[k+1] > ramCap[k+1]) &&
			!((hostMIPS[k+1]+mipsJ)/mipsCap[k+1] > beta))
		ok2 := k+2 == cur || (!(hostRAM[k+2]+ramJ+pen[k+2] > ramCap[k+2]) &&
			!((hostMIPS[k+2]+mipsJ)/mipsCap[k+2] > beta))
		ok3 := k+3 == cur || (!(hostRAM[k+3]+ramJ+pen[k+3] > ramCap[k+3]) &&
			!((hostMIPS[k+3]+mipsJ)/mipsCap[k+3] > beta))
		if ok0 {
			feasible = append(feasible, k)
		}
		if ok1 {
			feasible = append(feasible, k+1)
		}
		if ok2 {
			feasible = append(feasible, k+2)
		}
		if ok3 {
			feasible = append(feasible, k+3)
		}
	}
	for ; k < n; k++ {
		if k == cur || (!(hostRAM[k]+ramJ+pen[k] > ramCap[k]) &&
			!((hostMIPS[k]+mipsJ)/mipsCap[k] > beta)) {
			feasible = append(feasible, k)
		}
	}
	m.feasibleScratch = feasible
	qs, minQ = m.gatherRow(base, feasible)
	return feasible, qs, minQ
}

// scanRowActive is the activeOnly fast path at grid scale: instead of
// masking all M hosts it walks the sorted active-host list, which at the
// consolidation steady state is a small fraction of the grid. It is
// bitwise-equivalent to the full activeOnly sweep because an inactive host
// can never pass the active mask, cur is in the list (sampleDestination
// checked hostActive[cur]; it holds whenever the snapshot's VMHost and
// HostVMs agree, since VM j resides on cur), and the list is ascending —
// the same visit order, hence the same feasible sequence and the same
// minimum-comparison order. Active hosts satisfy the active test by
// construction, so the mask collapses to penAll (the blocked test).
func (m *Megh) scanRowActive(s *sim.Snapshot, j, cur, base int) (feasible []int, qs []float64, minQ float64) {
	n := m.cfg.NumHosts
	ramJ := s.VMSpecs[j].RAMMB
	mipsJ := s.VMMIPS[j]
	beta := s.OverloadThreshold
	hostRAM := m.hostRAM[:n:n]
	hostMIPS := m.hostMIPS[:n:n]
	ramCap := m.hostRAMCap[:n:n]
	mipsCap := m.hostMIPSCap[:n:n]
	pen := m.penAll[:n:n]
	list := m.activeList
	feasible = m.feasibleScratch[:0]
	i := 0
	for ; i+4 <= len(list); i += 4 {
		k0, k1, k2, k3 := list[i], list[i+1], list[i+2], list[i+3]
		ok0 := k0 == cur || (!(hostRAM[k0]+ramJ+pen[k0] > ramCap[k0]) &&
			!((hostMIPS[k0]+mipsJ)/mipsCap[k0] > beta))
		ok1 := k1 == cur || (!(hostRAM[k1]+ramJ+pen[k1] > ramCap[k1]) &&
			!((hostMIPS[k1]+mipsJ)/mipsCap[k1] > beta))
		ok2 := k2 == cur || (!(hostRAM[k2]+ramJ+pen[k2] > ramCap[k2]) &&
			!((hostMIPS[k2]+mipsJ)/mipsCap[k2] > beta))
		ok3 := k3 == cur || (!(hostRAM[k3]+ramJ+pen[k3] > ramCap[k3]) &&
			!((hostMIPS[k3]+mipsJ)/mipsCap[k3] > beta))
		if ok0 {
			feasible = append(feasible, k0)
		}
		if ok1 {
			feasible = append(feasible, k1)
		}
		if ok2 {
			feasible = append(feasible, k2)
		}
		if ok3 {
			feasible = append(feasible, k3)
		}
	}
	for ; i < len(list); i++ {
		k := list[i]
		if k == cur || (!(hostRAM[k]+ramJ+pen[k] > ramCap[k]) &&
			!((hostMIPS[k]+mipsJ)/mipsCap[k] > beta)) {
			feasible = append(feasible, k)
		}
	}
	m.feasibleScratch = feasible
	qs, minQ = m.gatherRow(base, feasible)
	return feasible, qs, minQ
}

// gatherRow fills qScratch with the feasible destinations' Q values and
// their minimum, in the same order and with the same comparison sequence
// as the scalar sweep's inline gather.
func (m *Megh) gatherRow(base int, feasible []int) ([]float64, float64) {
	if cap(m.qScratch) < len(feasible) {
		m.qScratch = make([]float64, len(feasible))
	}
	qs := m.qScratch[:len(feasible)]
	m.qScratch = qs
	minQ := m.theta.GatherMin(qs, base, feasible)
	return qs, minQ
}
