package core

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"megh/internal/sim"
	"megh/internal/trace"
	"megh/internal/workload"
)

// snapSequence captures a cloned snapshot per simulated step, giving tests
// a deterministic stream of distinct states to replay against learners.
type snapSequence struct {
	out *[]*sim.Snapshot
}

func (snapSequence) Name() string { return "seq" }

func (c *snapSequence) Decide(s *sim.Snapshot) []sim.Migration {
	*c.out = append(*c.out, s.Clone())
	return nil
}

// snapshotStream simulates `steps` intervals of a world whose VM loads vary
// step to step (so overload and underload candidates both occur) and
// returns every step's snapshot.
func snapshotStream(t testing.TB, nVMs, nHosts, steps int) []*sim.Snapshot {
	t.Helper()
	cfg := tinyConfig(t, nVMs, nHosts, 0.1)
	cfg.Steps = steps
	for i := range cfg.Traces {
		tr := make([]float64, steps)
		for s := range tr {
			tr[s] = 0.15 + 0.7*float64((i+s)%5)/4
		}
		cfg.Traces[i] = workload.Trace(tr)
	}
	var snaps []*sim.Snapshot
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&snapSequence{out: &snaps}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != steps {
		t.Fatalf("captured %d snapshots, want %d", len(snaps), steps)
	}
	return snaps
}

// batchItems pairs the snapshot stream with per-step cost feedback, the
// shape both the sequential and the batched learner consume.
func batchItems(snaps []*sim.Snapshot) []BatchItem {
	items := make([]BatchItem, len(snaps))
	for i, s := range snaps {
		items[i].Snap = s
		if i > 0 {
			items[i].Feedback = &sim.Feedback{
				Step:     i - 1,
				StepCost: 0.3 + 0.05*float64(i%7),
			}
		}
	}
	return items
}

// TestDecideBatchMatchesSequential is the differential acceptance test for
// the batch path: in both exact and deferred-update mode, DecideBatch over
// a snapshot stream must be decision-identical — same migrations AND
// byte-identical trace streams — to the equivalent sequential Observe/
// Decide loop with the same seed. Batching amortises transport and
// locking; it must not change semantics. Run under -race by `make check`.
func TestDecideBatchMatchesSequential(t *testing.T) {
	const nVMs, nHosts, steps = 12, 6, 60
	snaps := snapshotStream(t, nVMs, nHosts, steps)

	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"exact", func(*Config) {}},
		{"deferred", func(c *Config) {
			c.DeferThreshold = math.MaxFloat64
			c.DeferMaxAge = 4
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newLearner := func(buf *bytes.Buffer) *Megh {
				cfg := DefaultConfig(nVMs, nHosts, 1234)
				tc.mod(&cfg)
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := trace.New(trace.Options{W: buf})
				if err != nil {
					t.Fatal(err)
				}
				m.Trace(tr)
				return m
			}

			items := batchItems(snaps)

			var seqBuf bytes.Buffer
			seq := newLearner(&seqBuf)
			seqOut := make([][]sim.Migration, len(items))
			deferredSeen := false
			for i, it := range items {
				if it.Feedback != nil {
					seq.Observe(it.Feedback)
				}
				seqOut[i] = seq.DecideAppend(nil, it.Snap)
				deferredSeen = deferredSeen || seq.DeferredUpdates() > 0
			}

			var batchBuf bytes.Buffer
			batch := newLearner(&batchBuf)
			batchOut := batch.DecideBatch(items)

			if !reflect.DeepEqual(seqOut, batchOut) {
				t.Fatal("DecideBatch diverged from the sequential Observe/Decide loop")
			}
			if !bytes.Equal(seqBuf.Bytes(), batchBuf.Bytes()) {
				t.Fatal("batched and sequential trace streams differ byte-for-byte")
			}
			total := 0
			for _, migs := range batchOut {
				total += len(migs)
			}
			if total == 0 {
				t.Fatal("stream produced no migrations — the differential test exercised nothing")
			}
			if tc.name == "deferred" && !deferredSeen {
				t.Fatal("deferred mode never queued an update — the amortised path was not exercised")
			}
		})
	}
}

// TestDeferredFlushCadence pins the bounded-staleness contract: with
// DeferMaxAge = K, no queued transition survives more than K decides, and
// the flush applies the whole queue (merged multiplicities included) to B.
func TestDeferredFlushCadence(t *testing.T) {
	const nVMs, nHosts, steps = 10, 5, 40
	snaps := snapshotStream(t, nVMs, nHosts, steps)
	cfg := DefaultConfig(nVMs, nHosts, 7)
	cfg.DeferThreshold = math.MaxFloat64 // defer everything
	cfg.DeferMaxAge = 3
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	m.SetUpdateHook(func(a, b, n int, gamma, c float64, ok bool) {
		if ok {
			applied += n
		}
	})
	queuedEver := false
	for i, it := range batchItems(snaps) {
		if it.Feedback != nil {
			m.Observe(it.Feedback)
		}
		m.Decide(it.Snap)
		queuedEver = queuedEver || m.DeferredUpdates() > 0
		if m.deferAge >= cfg.DeferMaxAge {
			t.Fatalf("step %d: deferred queue aged %d decides, cap is %d",
				i, m.deferAge, cfg.DeferMaxAge)
		}
	}
	if !queuedEver {
		t.Fatal("defer-everything mode never queued an update")
	}
	if applied == 0 {
		t.Fatal("no deferred update was ever flushed into B")
	}
	// A manual flush drains whatever is still queued.
	m.FlushUpdates()
	if n := m.DeferredUpdates(); n != 0 {
		t.Fatalf("FlushUpdates left %d transitions queued", n)
	}
	if m.deferAge != 0 {
		t.Fatalf("FlushUpdates left deferAge = %d", m.deferAge)
	}
}

// TestDeferPushMergesRepeats checks the merge algebra bookkeeping: repeats
// of one (a, b) pair fold into a single queue entry with summed
// multiplicity and cost, and distinct pairs keep insertion order.
func TestDeferPushMergesRepeats(t *testing.T) {
	cfg := DefaultConfig(2, 2, 1)
	cfg.DeferThreshold = math.MaxFloat64
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.deferPush(1, 2, 0.5)
	m.deferPush(3, 0, 0.25)
	m.deferPush(1, 2, 0.5)
	m.deferPush(1, 2, 0.5)
	want := []deferredUpdate{{A: 1, B: 2, N: 3, C: 1.5}, {A: 3, B: 0, N: 1, C: 0.25}}
	if !reflect.DeepEqual(m.deferQ, want) {
		t.Fatalf("deferQ = %+v, want %+v", m.deferQ, want)
	}
	if got := m.DeferredUpdates(); got != 4 {
		t.Fatalf("DeferredUpdates() = %d, want 4", got)
	}
}

// TestScaledUpdateMatchesRepeatedUpdates verifies the amortisation algebra
// end-to-end at the learner level: applying one merged update of
// multiplicity n must leave B, z and θ (numerically) where n individual
// updates of cost c/n leave them.
func TestScaledUpdateMatchesRepeatedUpdates(t *testing.T) {
	const n, a, b, c = 5, 1, 3, 0.7
	mk := func() *Megh {
		m, err := New(DefaultConfig(2, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		// Seed some asymmetry so θ is non-trivial before the updates.
		m.applyUpdate(0, 2, 1, 0.4)
		return m
	}
	merged := mk()
	merged.applyUpdate(a, b, n, c)
	repeated := mk()
	for i := 0; i < n; i++ {
		repeated.applyUpdate(a, b, 1, c/n)
	}
	for i := 0; i < merged.Dim(); i++ {
		got, want := merged.theta.At(i), repeated.theta.At(i)
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("θ[%d]: merged %g vs repeated %g", i, got, want)
		}
	}
	gb, rb := merged.DebugB(), repeated.DebugB()
	for i := range gb {
		for j := range gb[i] {
			if math.Abs(gb[i][j]-rb[i][j]) > 1e-12 {
				t.Fatalf("B[%d,%d]: merged %g vs repeated %g", i, j, gb[i][j], rb[i][j])
			}
		}
	}
}

// TestDeferredCheckpointRoundTrip: a learner with a non-empty deferred
// queue must checkpoint losslessly — byte-stable re-save, queue preserved,
// and the restored learner's future decisions identical to the original's.
func TestDeferredCheckpointRoundTrip(t *testing.T) {
	const nVMs, nHosts, steps = 10, 5, 30
	snaps := snapshotStream(t, nVMs, nHosts, steps)
	cfg := DefaultConfig(nVMs, nHosts, 99)
	cfg.DeferThreshold = math.MaxFloat64
	cfg.DeferMaxAge = 1 << 30 // never auto-flush: keep the queue non-empty
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := batchItems(snaps[:20])
	m.DecideBatch(items)
	if m.DeferredUpdates() == 0 {
		t.Fatal("setup failed to leave updates queued")
	}

	var first bytes.Buffer
	if err := m.SaveState(&first); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.DeferredUpdates(), m.DeferredUpdates(); got != want {
		t.Fatalf("restored queue holds %d transitions, want %d", got, want)
	}
	if back.deferAge != m.deferAge {
		t.Fatalf("restored deferAge %d, want %d", back.deferAge, m.deferAge)
	}
	if back.pendingTotal != m.pendingTotal {
		t.Fatalf("restored pendingTotal %d, want %d", back.pendingTotal, m.pendingTotal)
	}
	var second bytes.Buffer
	if err := back.SaveState(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("deferred-state checkpoint round-trip is not byte-stable")
	}

	rest := batchItems(snaps)[20:]
	if !reflect.DeepEqual(m.DecideBatch(rest), back.DecideBatch(rest)) {
		t.Fatal("restored learner diverged from the original after the checkpoint")
	}
}

// TestLoadStateRejectsCorruptDeferredQueue: out-of-range indices, zero
// multiplicities and non-finite costs in a persisted queue must be refused,
// not replayed into the kernel.
func TestLoadStateRejectsCorruptDeferredQueue(t *testing.T) {
	cfg := DefaultConfig(2, 2, 1)
	cfg.DeferThreshold = math.MaxFloat64
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.deferPush(1, 2, 0.5)
	for name, corrupt := range map[string]deferredUpdate{
		"action-out-of-range": {A: 99, B: 0, N: 1, C: 0},
		"zero-multiplicity":   {A: 0, B: 1, N: 0, C: 0},
		"nan-cost":            {A: 0, B: 1, N: 1, C: math.NaN()},
	} {
		t.Run(name, func(t *testing.T) {
			saved := m.deferQ[0]
			m.deferQ[0] = corrupt
			var buf bytes.Buffer
			err := m.SaveState(&buf)
			m.deferQ[0] = saved
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadState(&buf); err == nil {
				t.Fatalf("corrupt deferred entry %+v loaded without error", corrupt)
			}
		})
	}
}

// BenchmarkDecideBatch measures the amortised per-decision cost of the
// batched hot path on the BenchmarkDecide world (150 VMs × 100 hosts).
// ns/op is per *decision*, not per batch, so the sub-benchmarks compare
// directly against BenchmarkDecide/disabled. Every item carries its own
// snapshot (perItemSnapshots), because that is the only traffic there is:
// the server builds one snapshot per request item and the paper's
// Algorithm 1 decides once per interval on a new state — so each decide
// pays its aggregate refresh and its candidate scans. The deferred variants
// queue every transition (DeferThreshold = +Inf) and flush once per batch
// (DeferMaxAge = batch size): the near-greedy policy resamples the same
// (a, b) transitions step after step, so a batch of K decides collapses
// into a handful of merged rank-1 kernel passes instead of K.
// Fixed iterations (-benchtime=10000x, see Makefile bench-json) keep ns/op
// comparable across revisions as the Q-table densifies.
func BenchmarkDecideBatch(b *testing.B) {
	bench := func(b *testing.B, snap *sim.Snapshot, batch int, deferred bool) {
		nVMs, nHosts := snap.NumVMs(), snap.NumHosts()
		cfg := DefaultConfig(nVMs, nHosts, 7)
		if deferred {
			cfg.DeferThreshold = math.MaxFloat64
			cfg.DeferMaxAge = batch
		}
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fb := sim.Feedback{StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1}
		items := make([]BatchItem, batch)
		for i, s := range perItemSnapshots(snap, batch) {
			items[i] = BatchItem{Snap: s, Feedback: &fb}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			m.DecideBatch(items)
		}
		reportGridDims(b, nVMs, nHosts)
	}
	snap := tinySnapshot(b, 150, 100)
	// Sub-benchmark names avoid a trailing "-<digits>" (n64, not 64):
	// benchjson strips the GOMAXPROCS suffix go test appends, and a bare
	// numeric tail would be eaten with it.
	b.Run("exact-n64", func(b *testing.B) { bench(b, snap, 64, false) })
	b.Run("deferred-n16", func(b *testing.B) { bench(b, snap, 16, true) })
	b.Run("deferred-n64", func(b *testing.B) { bench(b, snap, 64, true) })
	b.Run("deferred-n256", func(b *testing.B) { bench(b, snap, 256, true) })

	// The ROADMAP's scaling target: amortized decide cost on a 10k-host
	// grid. The world sits at a consolidation steady state (every active
	// host at 12.5% utilisation — no overload or underload candidates), so
	// what is left per decide is the O(N) placement diff and candidate
	// detection's two O(M) host scans, plus the exploration-rate share of
	// active-list sweeps.
	b.Run("deferred-grid10k", func(b *testing.B) {
		bench(b, steadySnapshot(b, 1000, 10000, 0.5), 256, true)
	})
}

// perItemSnapshots returns n snapshots of snap's state shaped as the server
// builds them (StateRequest.snapshot): every item owns fresh per-interval
// tables, all share the static spec slices and the history windows.
func perItemSnapshots(snap *sim.Snapshot, n int) []*sim.Snapshot {
	out := make([]*sim.Snapshot, n)
	for i := range out {
		c := *snap
		c.VMHost = slices.Clone(snap.VMHost)
		c.VMUtil = slices.Clone(snap.VMUtil)
		c.VMMIPS = slices.Clone(snap.VMMIPS)
		c.HostUtil = slices.Clone(snap.HostUtil)
		c.HostVMs = make([][]int, len(snap.HostVMs))
		for h, vms := range snap.HostVMs {
			c.HostVMs[h] = slices.Clone(vms)
		}
		c.HostFailed = make([]bool, snap.NumHosts())
		copy(c.HostFailed, snap.HostFailed)
		out[i] = &c
	}
	return out
}

// steadySnapshot is tinySnapshotN at a chosen utilisation: util 0.5 parks
// every occupied host between the underload and overload thresholds, so a
// decide stream at that load has no structural candidates — the grid-scale
// steady state.
func steadySnapshot(t testing.TB, nVMs, nHosts int, util float64) *sim.Snapshot {
	t.Helper()
	var snap *sim.Snapshot
	cfg := tinyConfig(t, nVMs, nHosts, util)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&snapGrabber{out: &snap}); err != nil {
		t.Fatal(err)
	}
	return snap
}

// reportGridDims attaches the world's dimensions to a Decide/DecideBatch
// benchmark as custom metrics; benchjson lifts unknown units into the
// BENCH_*.json extra map, keeping ns/op trajectories comparable across
// grid-size changes.
func reportGridDims(b *testing.B, nVMs, nHosts int) {
	b.ReportMetric(float64(nHosts), "hosts")
	b.ReportMetric(float64(nVMs), "vms")
}

// TestDecideBatchPanicsOnMismatchedWorld: the batch path must reject a
// wrong-sized snapshot exactly as Decide does.
func TestDecideBatchPanicsOnMismatchedWorld(t *testing.T) {
	m, err := New(DefaultConfig(5, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on N×M mismatch")
		}
	}()
	m.DecideBatch([]BatchItem{{Snap: tinySnapshot(t, 2, 2)}})
}
