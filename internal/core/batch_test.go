package core

import (
	"bytes"
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
// the batch path: DecideBatch over a snapshot stream must be
// decision-identical — same migrations AND byte-identical trace streams — to
// the equivalent sequential Observe/Decide loop with the same seed. Batching
// amortises transport and locking; it must not change semantics. Run under
// -race by `make check`.
func TestDecideBatchMatchesSequential(t *testing.T) {
	const nVMs, nHosts, steps = 12, 6, 60
	snaps := snapshotStream(t, nVMs, nHosts, steps)

	t.Run("exact", func(t *testing.T) {
		cfg := DefaultConfig(nVMs, nHosts, 1234)
		newLearner := func(buf *bytes.Buffer) *Megh {
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
		for i, it := range items {
			if it.Feedback != nil {
				seq.Observe(it.Feedback)
			}
			seqOut[i] = seq.DecideAppend(nil, it.Snap)
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
	})
}

// BenchmarkDecideBatch measures the amortised per-decision cost of the
// batched hot path. ns/op is per *decision*, not per batch, so the
// sub-benchmarks compare directly against BenchmarkDecide/disabled. Every
// item carries its own snapshot (perItemSnapshots), because that is the only
// traffic there is: the server builds one snapshot per request item and the
// paper's Algorithm 1 decides once per interval on a new state — so each
// decide pays its aggregate refresh and its candidate scans. Fixed
// iterations (-benchtime=10000x, see Makefile bench-json) keep ns/op
// comparable across revisions as the Q-table densifies.
func BenchmarkDecideBatch(b *testing.B) {
	bench := func(b *testing.B, snap *sim.Snapshot, batch int) {
		nVMs, nHosts := snap.NumVMs(), snap.NumHosts()
		m, err := New(DefaultConfig(nVMs, nHosts, 7))
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
	// Sub-benchmark names avoid a trailing "-<digits>" (n64, not 64):
	// benchjson strips the GOMAXPROCS suffix go test appends, and a bare
	// numeric tail would be eaten with it.
	b.Run("exact-n64", func(b *testing.B) { bench(b, tinySnapshot(b, 150, 100), 64) })

	// The ROADMAP's scaling target: amortized decide cost on a 10k-host
	// grid. The world sits at a consolidation steady state (every active
	// host at 12.5% utilisation — no overload or underload candidates), so
	// what is left per decide is the O(N) placement diff and candidate
	// detection's two O(M) host scans, plus the exploration-rate share of
	// active-list sweeps.
	b.Run("exact-grid10k", func(b *testing.B) {
		bench(b, steadySnapshot(b, 1000, 10000, 0.5), 256)
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
