package core

import "megh/internal/sim"

// This file holds the candidate-scoring scan: one pass over a list of
// hosts gathering VM j's feasible destinations, their Q values from θ row
// cells [base, base+M) and the row minimum. sampleDestination walks
// activeList, and walks allHosts only for an overload shed no active host
// can absorb (the one case that may wake a sleeping host). The stay
// destination cur is always feasible; another host k is feasible when it
// has not failed (a failed host delivers no capacity: proposing it burns
// the step's migration budget on a certain rejection and feeds the LSPI
// update an action that never executed), the VM's RAM fits, and placing it
// leaves k's CPU at or under the overload threshold β (a policy must not
// manufacture overloads). Feasibility reads only the flat per-host tables
// refreshHostAggregates filled. Returned slices alias the learner's scratch.
//
// scanRowScalar in kernels_test.go — a one-host-at-a-time loop over all M
// hosts with explicit failed and active branches — is the oracle the scan
// is held to bit for bit. Walking activeList is its active-only sweep
// because the list is ascending and holds cur (a live VM's host is active
// by construction): the same visit order, hence the same feasible
// sequence and the same minimum-comparison order. Bitwise identity rests
// on three IEEE-754 facts, each load-bearing:
//
//   - x + 0 == x bitwise for every finite x (the tables are finite by
//     Config/StateRequest validation), so folding penAll's 0 into the RAM
//     test changes nothing, while its +Inf forces the test infeasible —
//     exactly what the failed branch does.
//   - The MIPS test keeps its division form, (hostMIPS[k]+mipsJ)/mipsCap[k],
//     never the multiplied-out one: a/b > c and a > c*b round differently.
//   - The row minimum uses the same strict-less, sequential comparison
//     order, via sparse.PagedVector.GatherMin.

// scanRow scans VM j, on host cur with θ row offset base, over hosts.
func (m *Megh) scanRow(s *sim.Snapshot, j, cur, base int, hosts []int) (feasible []int, qs []float64, minQ float64) {
	n := m.cfg.NumHosts
	ramJ := s.VMSpecs[j].RAMMB
	mipsJ := s.VMMIPS[j]
	beta := s.OverloadThreshold
	hostRAM := m.hostRAM[:n:n]
	hostMIPS := m.hostMIPS[:n:n]
	ramCap := m.hostRAMCap[:n:n]
	mipsCap := m.hostMIPSCap[:n:n]
	pen := m.penAll[:n:n]
	feasible = m.feasibleScratch[:0]
	for _, k := range hosts {
		if k == cur || (!(hostRAM[k]+ramJ+pen[k] > ramCap[k]) &&
			!((hostMIPS[k]+mipsJ)/mipsCap[k] > beta)) {
			feasible = append(feasible, k)
		}
	}
	m.feasibleScratch = feasible
	if cap(m.qScratch) < len(feasible) {
		m.qScratch = make([]float64, len(feasible))
	}
	qs = m.qScratch[:len(feasible)]
	m.qScratch = qs
	return feasible, qs, m.theta.GatherMin(qs, base, feasible)
}
