package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"megh/internal/sim"
	"megh/internal/trace"
)

// kernelWorld builds a learner and a snapshot with a θ full of irregular
// values so row minima and ties are non-trivial.
func kernelWorld(t *testing.T, nVMs, nHosts int) (*Megh, *sim.Snapshot) {
	t.Helper()
	snaps := snapshotStream(t, nVMs, nHosts, 3)
	m, err := New(DefaultConfig(nVMs, nHosts, 11))
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < m.d; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if (i/nHosts)%3 == 2 {
			continue // every third VM's row stays unwritten
		}
		// Mostly zeros (the untrained-row shape) with irregular values and
		// deliberate ties sprinkled in.
		switch x % 5 {
		case 0:
			m.theta.Set(i, math.Ldexp(float64(int64(x>>12)%1000)-500, -20))
		case 1:
			m.theta.Set(i, -0.25)
		}
	}
	return m, snaps[len(snaps)-1]
}

// TestScanKernelsBitwiseIdentical compares the scan over both of its lists
// with the scalar oracle directly — activeList against the active-only
// sweep, allHosts against the full one: same feasible set, bit-identical Q
// gather, bit-identical row minimum, including with failed hosts in play.
// Each feasible set must also keep the destination rules on its own
// (assertFeasible); the two TestFits tests pin them on a 2×3 world.
func TestScanKernelsBitwiseIdentical(t *testing.T) {
	scanKernelsBitwiseIdentical(t, 24, 23, 0, 7, 22)
	// Past the eager budget θ's pages are allocated on write, and the
	// unwritten third of its rows is swept through pages that do not exist.
	t.Run("past-eager-budget", func(t *testing.T) { scanKernelsBitwiseIdentical(t, 33, 32003, 0, 7, 32002) })
	for _, nHosts := range []int{1, 2, 3, 4, 5, 7, 15, 16, 17} {
		t.Run(fmt.Sprintf("short-row-%d", nHosts), func(t *testing.T) {
			scanKernelsBitwiseIdentical(t, 6, nHosts, nHosts/2)
		})
	}
}

// feasibleSets scans VM 0 of a 2×3 world with host 1 failed over both
// lists, keyed "active" and "all". Round-robin placement puts VM 0 on host
// 0 and VM 1 on host 1, and leaves host 2 empty.
func feasibleSets(t *testing.T) map[string][]int {
	t.Helper()
	m, err := New(DefaultConfig(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := tinySnapshot(t, 2, 3)
	s.HostFailed = []bool{false, true, false}
	m.refreshHostAggregates(s)
	sets := make(map[string][]int)
	for key, hosts := range map[string][]int{"active": m.activeList, "all": m.allHosts} {
		f, _, _ := m.scanRow(s, 0, 0, 0, hosts)
		assertFeasible(t, key, m, s, 0, 0, key == "active", f)
		sets[key] = append([]int(nil), f...)
	}
	return sets
}

// TestFitsExcludesBlockedAndInactiveHosts exercises the destination filter
// on both lists: a failed host is never a destination, and an empty host is
// one only in the all-hosts walk.
func TestFitsExcludesBlockedAndInactiveHosts(t *testing.T) {
	want := map[string][]int{
		"all":    {0, 2},
		"active": {0},
	}
	if got := feasibleSets(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("feasible sets %v, want %v", got, want)
	}
}

// TestFitsExcludesFailedHosts is the regression test for the failed-host
// destination bug: the scan may not admit a failed host over either list,
// while a healthy active host stays admissible under the same aggregates.
func TestFitsExcludesFailedHosts(t *testing.T) {
	for key, f := range feasibleSets(t) {
		for _, k := range f {
			if k == 1 {
				t.Fatalf("%s: failed host 1 admitted (feasible %v)", key, f)
			}
		}
		if len(f) == 0 || f[0] != 0 {
			t.Fatalf("%s: healthy active host 0 rejected (feasible %v)", key, f)
		}
	}
}

// scanKernelsBitwiseIdentical runs the comparison on one world, as the
// subtests healthy and failed-hosts (with the listed hosts failed) of t.
func scanKernelsBitwiseIdentical(t *testing.T, nVMs, nHosts int, failed ...int) {
	m, snap := kernelWorld(t, nVMs, nHosts)
	// Placement is round-robin, so VM 0 sits on the first host; put the last
	// VM on the last one so cur is seen at both ends of the row.
	snap = snap.Clone()
	moveVM(snap, nVMs-1, nHosts-1)

	check := func(t *testing.T, s *sim.Snapshot) {
		t.Helper()
		m.refreshHostAggregates(s)
		for j := 0; j < nVMs; j++ {
			cur := s.VMHost[j]
			base := j * nHosts
			for _, activeOnly := range []bool{false, true} {
				f, q, min := m.scanRowScalar(s, j, cur, base, activeOnly)
				wantF := append([]int(nil), f...)
				wantQ := append([]float64(nil), q...)
				wantMin := min

				list, name := m.allHosts, "all"
				if activeOnly {
					list, name = m.activeList, "active"
				}
				f, q, min = m.scanRow(s, j, cur, base, list)
				assertFeasible(t, name, m, s, j, cur, activeOnly, f)
				compareScan(t, name, j, activeOnly, f, q, min, wantF, wantQ, wantMin)
			}
		}
	}

	t.Run("healthy", func(t *testing.T) { check(t, snap) })
	t.Run("failed-hosts", func(t *testing.T) {
		cl := snap.Clone()
		cl.HostFailed = make([]bool, nHosts)
		for _, h := range failed {
			cl.HostFailed[h] = true
		}
		check(t, cl)
	})
}

// scanRowScalar is the one-host-at-a-time sweep over all M hosts the scan
// replaced, kept as its oracle: explicit failed/active branches (failures
// read from the snapshot itself), inline gather, strict-less minimum.
func (m *Megh) scanRowScalar(s *sim.Snapshot, j, cur, base int, activeOnly bool) (feasible []int, qs []float64, minQ float64) {
	n := m.cfg.NumHosts
	ramJ := s.VMSpecs[j].RAMMB
	mipsJ := s.VMMIPS[j]
	beta := s.OverloadThreshold
	hostRAM := m.hostRAM[:n]
	hostMIPS := m.hostMIPS[:n]
	ramCap := m.hostRAMCap[:n]
	mipsCap := m.hostMIPSCap[:n]
	active := m.hostActive[:n]
	feasible = m.feasibleScratch[:0]
	qs = m.qScratch[:0]
	minQ = math.Inf(1)
	for k := 0; k < n; k++ {
		if k != cur {
			if (len(s.HostFailed) > 0 && s.HostFailed[k]) || (activeOnly && !active[k]) ||
				hostRAM[k]+ramJ > ramCap[k] ||
				(hostMIPS[k]+mipsJ)/mipsCap[k] > beta {
				continue
			}
		}
		q := m.theta.At(base + k)
		feasible = append(feasible, k)
		qs = append(qs, q)
		if q < minQ {
			minQ = q
		}
	}
	m.feasibleScratch = feasible
	m.qScratch = qs
	return feasible, qs, minQ
}

// assertFeasible checks a scan's feasible list against the destination
// rules directly, not through the oracle: a failed host is never a
// destination, nor an inactive one in an activeOnly sweep; the VM's current
// host (the stay action) is exempt from both.
func assertFeasible(t *testing.T, kernel string, m *Megh, s *sim.Snapshot, j, cur int, activeOnly bool, f []int) {
	t.Helper()
	for _, k := range f {
		switch {
		case k == cur:
		case len(s.HostFailed) > 0 && s.HostFailed[k]:
			t.Fatalf("%s kernel, vm %d activeOnly=%v: failed host %d is feasible", kernel, j, activeOnly, k)
		case activeOnly && !m.hostActive[k]:
			t.Fatalf("%s kernel, vm %d activeOnly=true: inactive host %d is feasible", kernel, j, k)
		}
	}
}

func compareScan(t *testing.T, kernel string, j int, activeOnly bool,
	f []int, q []float64, min float64, wantF []int, wantQ []float64, wantMin float64) {
	t.Helper()
	if !reflect.DeepEqual(f, wantF) && !(len(f) == 0 && len(wantF) == 0) {
		t.Fatalf("%s kernel, vm %d activeOnly=%v: feasible %v, scalar %v",
			kernel, j, activeOnly, f, wantF)
	}
	if math.Float64bits(min) != math.Float64bits(wantMin) {
		t.Fatalf("%s kernel, vm %d activeOnly=%v: minQ %x, scalar %x",
			kernel, j, activeOnly, math.Float64bits(min), math.Float64bits(wantMin))
	}
	for i := range q {
		if math.Float64bits(q[i]) != math.Float64bits(wantQ[i]) {
			t.Fatalf("%s kernel, vm %d activeOnly=%v: q[%d] %x, scalar %x",
				kernel, j, activeOnly, i, math.Float64bits(q[i]), math.Float64bits(wantQ[i]))
		}
	}
}

// reuseStream is a snapshot stream of distinct steps followed by
// adversarial shapes: the same pointer twice in a row, a clone (mut) that
// its consumer mutates in place with mutateReuse just before the learner
// sees it, and a failed host appearing and clearing again.
func reuseStream(t *testing.T, nVMs, nHosts int) (stream []*sim.Snapshot, mut *sim.Snapshot) {
	snaps := snapshotStream(t, nVMs, nHosts, 40)
	stream = append(stream, snaps...)
	stream = append(stream, snaps[len(snaps)-1], snaps[len(snaps)-1])
	mut = snaps[len(snaps)-1].Clone()
	stream = append(stream, mut)
	failed := snaps[0].Clone()
	failed.HostFailed = make([]bool, nHosts)
	failed.HostFailed[3] = true
	return append(stream, failed, snaps[1], snaps[2]), mut
}

// mutateReuse moves reuseStream's mut's first VM to the next host in place.
// The learner must pick the move up from the contents — the two preceding
// items were the unmutated original.
func mutateReuse(mut *sim.Snapshot) {
	moveVM(mut, 0, (mut.VMHost[0]+1)%mut.NumHosts())
}

// resetHostTables returns m's per-host tables to a new learner's, so the
// next refresh starts from zero as a learner's first one does.
func resetHostTables(m *Megh) {
	clear(m.hostRAM)
	clear(m.hostMIPS)
	clear(m.hostRAMCap)
	clear(m.hostMIPSCap)
	clear(m.hostActive)
	clear(m.hostVMCount)
	clear(m.penAll)
	m.penFailed = false
	m.prevHostSpecs = nil
	m.activeList = m.activeList[:0]
	m.undoLog = m.undoLog[:0]
}

// TestAggregateReuseMatchesRebuild is the end-to-end reuse differential:
// a default learner, whose refresh reuses what the last one left, against a
// same-seed learner whose tables are reset to a new learner's before every
// decide, over reuseStream.
func TestAggregateReuseMatchesRebuild(t *testing.T) {
	const nVMs, nHosts = 18, 20
	stream, mut := reuseStream(t, nVMs, nHosts)
	orig := mut.VMHost[0]

	run := func(reuse bool) ([][]sim.Migration, []byte) {
		m, err := New(DefaultConfig(nVMs, nHosts, 777))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr, err := trace.New(trace.Options{W: &buf})
		if err != nil {
			t.Fatal(err)
		}
		m.Trace(tr)
		out := make([][]sim.Migration, len(stream))
		for i, s := range stream {
			if i > 0 {
				m.Observe(&sim.Feedback{Step: i - 1, StepCost: 0.3 + 0.05*float64(i%7)})
			}
			if s == mut {
				mutateReuse(mut)
			}
			if !reuse {
				resetHostTables(m)
			}
			out[i] = m.DecideAppend(nil, s)
		}
		return out, buf.Bytes()
	}

	rebuildOut, rebuildTrace := run(false)
	// The first run mutated `mut`; restore it so the second run applies the
	// same mutation from the same starting placement.
	moveVM(mut, 0, orig)
	reuseOut, reuseTrace := run(true)
	if !reflect.DeepEqual(rebuildOut, reuseOut) {
		t.Fatal("aggregate reuse diverged from the reset-every-step reference")
	}
	if !bytes.Equal(rebuildTrace, reuseTrace) {
		t.Fatal("reuse and reset trace streams differ byte-for-byte")
	}
}

// checkHostTables compares m's per-host tables, straight after a refresh
// from s, with values computed from s alone: sums in ascending VM order,
// active exactly where a live VM's VMHost points, an ascending activeList,
// +Inf exactly on failed hosts, capacities from HostSpecs, and no
// speculative charge left outstanding.
func checkHostTables(t *testing.T, what string, m *Megh, s *sim.Snapshot) {
	t.Helper()
	n := s.NumHosts()
	ram, mips, count := make([]float64, n), make([]float64, n), make([]int, n)
	for j, h := range s.VMHost {
		if h >= 0 {
			ram[h] += s.VMSpecs[j].RAMMB
			mips[h] += s.VMMIPS[j]
			count[h]++
		}
	}
	var active []int
	for i := 0; i < n; i++ {
		if math.Float64bits(m.hostRAM[i]) != math.Float64bits(ram[i]) ||
			math.Float64bits(m.hostMIPS[i]) != math.Float64bits(mips[i]) {
			t.Fatalf("%s: host %d sums RAM %v MIPS %v, want %v %v", what, i, m.hostRAM[i], m.hostMIPS[i], ram[i], mips[i])
		}
		if m.hostVMCount[i] != count[i] || m.hostActive[i] != (count[i] > 0) {
			t.Fatalf("%s: host %d count %d active %v, want %d live VMs", what, i, m.hostVMCount[i], m.hostActive[i], count[i])
		}
		if count[i] > 0 {
			active = append(active, i)
		}
		pen := 0.0
		if len(s.HostFailed) > 0 && s.HostFailed[i] {
			pen = math.Inf(1)
		}
		if math.Float64bits(m.penAll[i]) != math.Float64bits(pen) {
			t.Fatalf("%s: host %d penalty %v, want %v", what, i, m.penAll[i], pen)
		}
		if m.hostRAMCap[i] != s.HostSpecs[i].RAMMB || m.hostMIPSCap[i] != s.HostSpecs[i].MIPS {
			t.Fatalf("%s: host %d capacities %v/%v, want %v/%v", what, i,
				m.hostRAMCap[i], m.hostMIPSCap[i], s.HostSpecs[i].RAMMB, s.HostSpecs[i].MIPS)
		}
	}
	if !reflect.DeepEqual(m.activeList, active) && !(len(m.activeList) == 0 && len(active) == 0) {
		t.Fatalf("%s: activeList %v, want %v", what, m.activeList, active)
	}
	if len(m.undoLog) != 0 {
		t.Fatalf("%s: %d speculative charges outstanding", what, len(m.undoLog))
	}
}

// TestRefreshMatchesSnapshot is the reference for the one refresh: each
// case steps a new learner through its stream, and after every refresh —
// entered with whatever the last decide left, speculative charges included
// — checkHostTables holds the tables to values computed from the snapshot.
func TestRefreshMatchesSnapshot(t *testing.T) {
	const nHosts = 40
	// base places 24 100-MIPS VMs: eight each on hosts 3 and 30
	// (overloaded), two each on 7 and 21 (underloaded), the rest spread.
	base := func() ([]int, []float64) {
		h, u := make([]int, 24), make([]float64, 24)
		for j := range h {
			switch {
			case j < 8:
				h[j], u[j] = 3, 0.9
			case j < 16:
				h[j], u[j] = 30, 0.9
			case j < 18:
				h[j], u[j] = 7, 0.25
			case j < 20:
				h[j], u[j] = 21, 0.25
			default:
				h[j], u[j] = 10+j, 0.6
			}
		}
		return h, u
	}
	world := func(step int, edit func(h []int)) *sim.Snapshot {
		h, u := base()
		if edit != nil {
			edit(h)
		}
		return candidateWorld(step, nHosts, h, u)
	}
	reuse, mut := reuseStream(t, 18, 20)

	// The failure case repeats one snapshot pointer so that only HostFailed
	// moves between its steps: none, two hosts, one, an all-false slice,
	// none.
	failing := world(0, nil)
	failedAt := func(hosts ...int) []bool {
		f := make([]bool, nHosts)
		for _, h := range hosts {
			f[h] = true
		}
		return f
	}
	failures := [][]bool{nil, failedAt(3, 5), failedAt(5), failedAt(), nil}
	fresh := world(2, nil).Clone()
	for i := range fresh.HostSpecs {
		fresh.HostSpecs[i].RAMMB /= 2
		fresh.HostSpecs[i].MIPS *= 2
	}
	disagree := world(0, nil)
	disagree.VMHost[20] = 5 // HostVMs still lists VM 20 on host 30

	cases := []struct {
		name     string
		stream   []*sim.Snapshot
		edit     func(step int, s *sim.Snapshot)
		wantUndo bool // some refresh must be entered with speculative charges
	}{
		{name: "reuse-stream", stream: reuse, edit: func(_ int, s *sim.Snapshot) {
			if s == mut {
				mutateReuse(mut)
			}
		}},
		{name: "failure-appears-and-clears", stream: []*sim.Snapshot{failing, failing, failing, failing, failing},
			edit: func(step int, s *sim.Snapshot) { s.HostFailed = failures[step] }},
		{name: "dead-slots", stream: []*sim.Snapshot{
			world(0, nil),
			world(1, func(h []int) { h[5], h[18], h[23] = -1, -1, -1 }),
			world(2, func(h []int) { h[18], h[19] = -1, -1 }),
			world(3, nil),
		}},
		{name: "speculative", wantUndo: true, stream: []*sim.Snapshot{
			world(0, nil), world(1, nil), world(2, nil), world(3, func(h []int) { h[16], h[17] = 39, 0 }),
		}},
		{name: "fresh-host-specs", stream: []*sim.Snapshot{world(0, nil), world(1, nil), fresh, fresh, world(3, nil)}},
		{name: "disagreeing-lists", stream: []*sim.Snapshot{disagree, disagree}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nVMs, nH := len(c.stream[0].VMHost), c.stream[0].NumHosts()
			m, err := New(DefaultConfig(nVMs, nH, 9))
			if err != nil {
				t.Fatal(err)
			}
			sawUndo := false
			for step, s := range c.stream {
				if c.edit != nil {
					c.edit(step, s)
				}
				if step > 0 {
					m.Observe(&sim.Feedback{Step: step - 1, StepCost: 0.4})
				}
				sawUndo = sawUndo || len(m.undoLog) > 0
				m.refreshHostAggregates(s)
				checkHostTables(t, fmt.Sprintf("step %d", step), m, s)
				m.Decide(s)
			}
			if c.wantUndo && !sawUndo {
				t.Fatal("no refresh was entered with speculative charges")
			}
		})
	}
}

// moveVM relocates VM j to host dest in place, keeping VMHost and HostVMs
// consistent.
func moveVM(s *sim.Snapshot, j, dest int) {
	from := s.VMHost[j]
	if from == dest {
		return
	}
	s.VMHost[j] = dest
	vms := s.HostVMs[from][:0]
	for _, v := range s.HostVMs[from] {
		if v != j {
			vms = append(vms, v)
		}
	}
	s.HostVMs[from] = vms
	s.HostVMs[dest] = append(s.HostVMs[dest], j)
}

// candidatesFullScan is candidates as it was while both host loops walked
// all M hosts, kept verbatim as the oracle for the walk over activeList.
func (m *Megh) candidatesFullScan(s *sim.Snapshot, cap_ int) []candidate {
	clear(m.seenScratch)
	m.candScratch = m.candScratch[:0]
	for i := 0; i < s.NumHosts() && len(m.candScratch) < cap_; i++ {
		if !s.HostOverloaded(i) || len(s.HostVMs[i]) == 0 {
			continue
		}
		heaviest, demand := -1, -1.0
		for _, j := range s.HostVMs[i] {
			if s.VMMIPS[j] > demand {
				heaviest, demand = j, s.VMMIPS[j]
			}
		}
		m.addCandidate(heaviest, trace.ReasonOverload, cap_)
	}
	minUtil := m.cfg.UnderloadThreshold
	minHost := -1
	for i := 0; i < s.NumHosts(); i++ {
		if len(s.HostVMs[i]) > 0 && s.HostUtil[i] < minUtil {
			minUtil = s.HostUtil[i]
			minHost = i
		}
	}
	if minHost >= 0 {
		for _, j := range s.HostVMs[minHost] {
			m.addCandidate(j, trace.ReasonUnderload, cap_)
		}
	}
	if m.rng.Float64() < m.cfg.ExplorationRate && len(m.candScratch) < cap_ {
		if j := m.rng.Intn(s.NumVMs()); s.VMLive(j) {
			m.addCandidate(j, trace.ReasonExploration, cap_)
		}
	}
	return m.candScratch
}

// candidateWorld builds a consistent snapshot of nHosts identical hosts
// (1000 MIPS, ample RAM) from a placement and per-VM utilizations of 100-MIPS
// VMs; host −1 is a dead lifecycle slot. failed lists the failed hosts.
func candidateWorld(step, nHosts int, vmHost []int, vmUtil []float64, failed ...int) *sim.Snapshot {
	nVMs := len(vmHost)
	s := &sim.Snapshot{
		Step: step, StepSeconds: 300, OverloadThreshold: 0.7,
		VMHost: vmHost, VMUtil: vmUtil,
		VMMIPS: make([]float64, nVMs), VMSpecs: make([]sim.VMSpec, nVMs),
		HostUtil: make([]float64, nHosts), HostVMs: make([][]int, nHosts),
		HostSpecs: make([]sim.HostSpec, nHosts),
	}
	for i := range s.HostSpecs {
		s.HostSpecs[i] = sim.HostSpec{MIPS: 1000, RAMMB: 1 << 20, BandwidthMbps: 1000}
	}
	for j, h := range vmHost {
		s.VMSpecs[j] = sim.VMSpec{MIPS: 100, RAMMB: 512, BandwidthMbps: 100}
		if h < 0 {
			if s.VMAlive == nil {
				s.VMAlive = make([]bool, nVMs)
				for k := range s.VMAlive {
					s.VMAlive[k] = vmHost[k] >= 0
				}
			}
			continue
		}
		s.VMMIPS[j] = vmUtil[j] * 100
		s.HostVMs[h] = append(s.HostVMs[h], j)
		s.HostUtil[h] += s.VMMIPS[j] / 1000
	}
	if len(failed) > 0 {
		s.HostFailed = make([]bool, nHosts)
		for _, h := range failed {
			s.HostFailed[h] = true
		}
	}
	return s
}

// TestCandidatesOverActiveListMatchesFullScan steps one learner through
// worlds built to separate the two walks if anything could — failed hosts
// with and without VMs, dead lifecycle slots, hosts
// emptying and waking, steps entered with speculative charges still in the
// undo log, ties on the minimum utilization — and at every step, for caps
// that bite mid-scan and caps that do not, compares the candidate list (VM,
// reason, order) and the RNG draws of candidates with the full-scan oracle's.
func TestCandidatesOverActiveListMatchesFullScan(t *testing.T) {
	const nVMs, nHosts = 24, 40
	cfg := DefaultConfig(nVMs, nHosts, 5)
	cfg.ExplorationRate = 0.5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Eight VMs each on hosts 3 and 30 (overloaded at util 0.9), two light
	// ones each on 7 and 21 (tied for the minimum), the rest spread.
	place := func() ([]int, []float64) {
		h, u := make([]int, nVMs), make([]float64, nVMs)
		for j := range h {
			switch {
			case j < 8:
				h[j], u[j] = 3, 0.9+0.001*float64(j)
			case j < 16:
				h[j], u[j] = 30, 0.9
			case j < 18:
				h[j], u[j] = 7, 0.25
			case j < 20:
				h[j], u[j] = 21, 0.25
			default:
				h[j], u[j] = 10+j, 0.6
			}
		}
		return h, u
	}
	var stream []*sim.Snapshot
	add := func(edit func(h []int, u []float64), failed ...int) {
		h, u := place()
		if edit != nil {
			edit(h, u)
		}
		stream = append(stream, candidateWorld(len(stream), nHosts, h, u, failed...))
	}
	add(nil)
	add(nil)                                                            // entered with the first step's speculative charges pending
	add(func(h []int, u []float64) { h[16], h[17] = 21, 21 })           // host 7 empties
	add(func(h []int, u []float64) { h[16], h[17] = 39, 0 })            // hosts 39 and 0 wake
	add(func(h []int, u []float64) { h[5], h[18], h[23] = -1, -1, -1 }) // dead slots
	add(nil, 3, 5)                                                      // a failed host with VMs, one without
	add(func(h []int, u []float64) { h[16], h[17] = 5, 5 }, 5, 30)
	add(nil) // failures cleared
	add(func(h []int, u []float64) {
		for j := range h {
			h[j] = 12 // every VM on one host
		}
	})
	add(nil)

	sawUndo := false
	for step, s := range stream {
		if step > 0 {
			m.Observe(&sim.Feedback{Step: step - 1, StepCost: 0.4})
		}
		sawUndo = sawUndo || len(m.undoLog) > 0
		m.refreshHostAggregates(s)
		for _, cap_ := range []int{1, 2, 3, 5, nVMs} {
			before := *m.rng
			want := append([]candidate(nil), m.candidatesFullScan(s, cap_)...)
			wantRNG := *m.rng
			*m.rng = before
			got := append([]candidate(nil), m.candidates(s, cap_)...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d cap %d: candidates %v, full scan %v", step, cap_, got, want)
			}
			if *m.rng != wantRNG {
				t.Fatalf("step %d cap %d: candidates drew differently from the full scan", step, cap_)
			}
			*m.rng = before
		}
		m.Decide(s)
	}
	if !sawUndo {
		t.Fatal("no step was entered with speculative charges in the undo log")
	}
}
