package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"megh/internal/sim"
	"megh/internal/trace"
)

// kernelWorld builds a learner and a snapshot large enough for the unrolled
// kernels to engage (NumHosts ≥ unrolledMinHosts), with a θ full of
// irregular values so row minima and ties are non-trivial.
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

// TestScanKernelsBitwiseIdentical compares every scanRow kernel directly:
// same feasible set, bit-identical Q gather, bit-identical row minimum —
// including with failed (blocked) hosts in play.
func TestScanKernelsBitwiseIdentical(t *testing.T) {
	// Odd host counts exercise the unroll tail.
	scanKernelsBitwiseIdentical(t, 24, 23)
	// Past the eager budget θ's pages are allocated on write, and the
	// unwritten third of its rows is swept through pages that do not exist.
	t.Run("past-eager-budget", func(t *testing.T) { scanKernelsBitwiseIdentical(t, 33, 32003) })
}

// scanKernelsBitwiseIdentical runs the comparison on one world, as the
// subtests healthy and failed-hosts of t.
func scanKernelsBitwiseIdentical(t *testing.T, nVMs, nHosts int) {
	m, snap := kernelWorld(t, nVMs, nHosts)

	check := func(t *testing.T, s *sim.Snapshot) {
		t.Helper()
		m.rebuildHostAggregates(s)
		for j := 0; j < nVMs; j++ {
			cur := s.VMHost[j]
			base := j * nHosts
			for _, activeOnly := range []bool{false, true} {
				f, q, min := m.scanRowScalar(s, j, cur, base, activeOnly)
				wantF := append([]int(nil), f...)
				wantQ := append([]float64(nil), q...)
				wantMin := min

				f, q, min = m.scanRowUnrolled(s, j, cur, base, activeOnly)
				compareScan(t, "unrolled", j, activeOnly, f, q, min, wantF, wantQ, wantMin)

				if activeOnly && m.hostActive[cur] {
					f, q, min = m.scanRowActive(s, j, cur, base)
					compareScan(t, "active", j, activeOnly, f, q, min, wantF, wantQ, wantMin)
				}
			}
		}
	}

	t.Run("healthy", func(t *testing.T) { check(t, snap) })
	t.Run("failed-hosts", func(t *testing.T) {
		cl := snap.Clone()
		cl.HostFailed = make([]bool, nHosts)
		cl.HostFailed[0] = true
		cl.HostFailed[7] = true
		cl.HostFailed[nHosts-1] = true
		check(t, cl)
	})
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

// TestScanKernelDecisionsIdentical is the end-to-end kernel differential:
// two same-seed learners, one forced scalar and one forced unrolled, must
// make identical decisions with byte-identical traces over a full stream.
func TestScanKernelDecisionsIdentical(t *testing.T) {
	const nVMs, nHosts, steps = 18, 20, 60
	snaps := snapshotStream(t, nVMs, nHosts, steps)
	items := batchItems(snaps)

	run := func(k ScanKernel) ([][]sim.Migration, []byte) {
		m, err := New(DefaultConfig(nVMs, nHosts, 4242))
		if err != nil {
			t.Fatal(err)
		}
		m.SetScanKernel(k)
		var buf bytes.Buffer
		tr, err := trace.New(trace.Options{W: &buf})
		if err != nil {
			t.Fatal(err)
		}
		m.Trace(tr)
		out := make([][]sim.Migration, len(items))
		for i, it := range items {
			if it.Feedback != nil {
				m.Observe(it.Feedback)
			}
			out[i] = m.DecideAppend(nil, it.Snap)
		}
		return out, buf.Bytes()
	}

	scalarOut, scalarTrace := run(ScanScalar)
	unrolledOut, unrolledTrace := run(ScanUnrolled)
	if !reflect.DeepEqual(scalarOut, unrolledOut) {
		t.Fatal("unrolled scanRow kernel diverged from the scalar kernel")
	}
	if !bytes.Equal(scalarTrace, unrolledTrace) {
		t.Fatal("scalar and unrolled trace streams differ byte-for-byte")
	}
	total := 0
	for _, migs := range scalarOut {
		total += len(migs)
	}
	if total == 0 {
		t.Fatal("stream produced no migrations — the differential exercised nothing")
	}
}

// TestAggregateReuseMatchesRebuild is the end-to-end reuse differential:
// a default learner (delta/trusted tiers active) against a same-seed
// learner with SetAggregateReuse(false) (every refresh a full rebuild),
// over a stream that exercises distinct snapshots, repeated pointers,
// in-place mutation of one snapshot, and the failed-host fallback.
func TestAggregateReuseMatchesRebuild(t *testing.T) {
	const nVMs, nHosts, steps = 18, 20, 40
	snaps := snapshotStream(t, nVMs, nHosts, steps)

	// Append adversarial shapes to the stream: the same pointer twice in a
	// row, an in-place placement mutation (moving a VM between hosts), and
	// a failed host appearing and clearing again.
	stream := append([]*sim.Snapshot(nil), snaps...)
	stream = append(stream, snaps[len(snaps)-1], snaps[len(snaps)-1])
	mut := snaps[len(snaps)-1].Clone()
	stream = append(stream, mut)
	failed := snaps[0].Clone()
	failed.HostFailed = make([]bool, nHosts)
	failed.HostFailed[3] = true
	stream = append(stream, failed, snaps[1], snaps[2])

	run := func(reuse bool) ([][]sim.Migration, []byte) {
		m, err := New(DefaultConfig(nVMs, nHosts, 777))
		if err != nil {
			t.Fatal(err)
		}
		m.SetAggregateReuse(reuse)
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
			if s == mut && i > 0 {
				// Mutate the snapshot in place between the two learners'
				// visibility windows: move the first VM to the next host.
				// The trust epoch must force the reuse learner to re-diff
				// rather than serve stale aggregates.
				moveVM(mut, 0, (mut.VMHost[0]+1)%nHosts)
			}
			out[i] = m.DecideAppend(nil, s)
		}
		return out, buf.Bytes()
	}

	rebuildOut, rebuildTrace := run(false)
	// The first run mutated `mut`; restore it so the second run applies the
	// same mutation from the same starting placement.
	moveVM(mut, 0, snaps[len(snaps)-1].VMHost[0])
	reuseOut, reuseTrace := run(true)
	if !reflect.DeepEqual(rebuildOut, reuseOut) {
		t.Fatal("aggregate reuse diverged from the full-rebuild reference")
	}
	if !bytes.Equal(rebuildTrace, reuseTrace) {
		t.Fatal("reuse and rebuild trace streams differ byte-for-byte")
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

// TestTrustedBatchMatchesClonedBatch pins the trusted tier: a batch whose
// items share one snapshot pointer (the steady-state serving shape, served
// by the zero-work trusted tier and the candidate cache) must decide
// exactly like a batch of per-item clones (served by the delta tier).
func TestTrustedBatchMatchesClonedBatch(t *testing.T) {
	const nVMs, nHosts, batch = 18, 20, 64
	snaps := snapshotStream(t, nVMs, nHosts, 1)
	snap := snaps[0]

	mk := func() *Megh {
		m, err := New(DefaultConfig(nVMs, nHosts, 2026))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fb := sim.Feedback{StepCost: 0.4}
	shared := make([]BatchItem, batch)
	cloned := make([]BatchItem, batch)
	for i := range shared {
		shared[i] = BatchItem{Snap: snap, Feedback: &fb}
		cloned[i] = BatchItem{Snap: snap.Clone(), Feedback: &fb}
	}
	sharedOut := mk().DecideBatch(shared)
	clonedOut := mk().DecideBatch(cloned)
	if !reflect.DeepEqual(sharedOut, clonedOut) {
		t.Fatal("trusted-tier batch diverged from the per-item-clone batch")
	}
	total := 0
	for _, migs := range sharedOut {
		total += len(migs)
	}
	if total == 0 {
		t.Fatal("batch produced no migrations — the differential exercised nothing")
	}
}
