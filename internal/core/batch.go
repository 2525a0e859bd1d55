package core

import "megh/internal/sim"

// This file holds the batched/amortised decide path: DecideBatch, which
// drives many observe→decide steps through one call, and the deferred-update
// queue that lets those steps merge low-magnitude Sherman–Morrison updates
// instead of paying one rank-1 kernel pass per transition.
//
// The semantics contract is strict: DecideBatch is decision-identical to the
// equivalent sequential Observe/Decide loop in *both* modes — batching
// amortises transport and locking, deferral amortises linear algebra, and
// neither changes what the learner decides relative to its mode. Deferral
// does trade decision freshness for throughput (θ lags the queued
// transitions by at most DeferMaxAge decides), which is why it is opt-in
// via Config.DeferThreshold and off in the exact default.

// deferredUpdate is one queued LSPI transition awaiting application: the
// rank-1 T update φ_A(φ_A − γφ_B)ᵀ with multiplicity N (repeats of the same
// (A, B) pair merge) and summed cost share C. Fields are exported so
// checkpoints gob-encode the queue.
type deferredUpdate struct {
	A, B int
	N    int
	C    float64
}

// deferMaxAge resolves Config.DeferMaxAge, zero meaning DefaultDeferMaxAge.
func (m *Megh) deferMaxAge() int {
	if m.cfg.DeferMaxAge > 0 {
		return m.cfg.DeferMaxAge
	}
	return DefaultDeferMaxAge
}

// deferPush queues one transition, merging it with an already-queued update
// for the same (a, b) pair: n repetitions of φ_a(φ_a − γφ_b)ᵀ are exactly
// one rank-1 update of T with v scaled by n, so the merge loses nothing —
// applyUpdate replays the multiplicity through the scaled kernel. Queue
// order is insertion order of first occurrence, keeping flushes
// deterministic for a given decision sequence.
func (m *Megh) deferPush(a, b int, c float64) {
	key := int64(a)*int64(m.d) + int64(b)
	if i, ok := m.deferIdx[key]; ok {
		m.deferQ[i].N++
		m.deferQ[i].C += c
		return
	}
	if m.deferIdx == nil {
		m.deferIdx = make(map[int64]int)
	}
	m.deferIdx[key] = len(m.deferQ)
	m.deferQ = append(m.deferQ, deferredUpdate{A: a, B: b, N: 1, C: c})
}

// FlushUpdates applies every deferred transition now, in queue order, and
// resets the staleness clock. Decide calls it automatically on the
// DeferMaxAge cadence; callers that need a fully up-to-date learner at a
// known point (checkpointing at a phase boundary, handing the learner to
// an invariant probe, end of an experiment) may call it directly. A no-op
// in exact mode or when nothing is queued.
func (m *Megh) FlushUpdates() {
	for i := range m.deferQ {
		du := &m.deferQ[i]
		m.applyUpdate(du.A, du.B, du.N, du.C)
	}
	m.deferQ = m.deferQ[:0]
	clear(m.deferIdx)
	m.deferAge = 0
}

// DeferredUpdates reports the number of queued LSPI transitions counting
// multiplicity (merged repeats count individually), i.e. how many logical
// transitions the learner's B/z/θ state currently lags behind.
func (m *Megh) DeferredUpdates() int {
	n := 0
	for i := range m.deferQ {
		n += m.deferQ[i].N
	}
	return n
}

// BatchItem pairs one decision query with the feedback observed since the
// previous one.
type BatchItem struct {
	// Snap is the state to decide on. Batch callers queue snapshots ahead
	// of the call, so unlike the single-step Decide path the snapshot must
	// not alias simulator-owned scratch — use sim.Snapshot.Clone when the
	// producer reuses its buffers. (A caller that would rather hold one
	// snapshot than a batch of them runs DecideBatch's loop itself and
	// refills the snapshot between Observe and DecideAppend, as the HTTP
	// service does.)
	Snap *sim.Snapshot
	// Feedback, when non-nil, is observed (cost recorded, rejected actions
	// reconciled) before this item's decide, exactly as a sequential
	// caller would invoke Observe between steps.
	Feedback *sim.Feedback
}

// DecideBatch runs the observe→decide loop over a batch of items against
// this learner and returns one caller-owned migration slice per item
// (nil when an item produced no migrations).
//
// It is decision-identical to the equivalent sequential loop of Observe and
// Decide calls — same RNG consumption, same updates, byte-identical traces
// (pinned by TestDecideBatchMatchesSequential) — in both exact and
// deferred-update modes; what it amortises is everything *around* the
// learner: one call for the whole batch and, with deferral enabled, merged
// rank-1 updates across the batch's repeated transitions. Per-item tracer
// events and metrics fire exactly as they would sequentially.
func (m *Megh) DecideBatch(items []BatchItem) [][]sim.Migration {
	out := make([][]sim.Migration, len(items))
	for i := range items {
		if items[i].Feedback != nil {
			m.Observe(items[i].Feedback)
		}
		out[i] = m.DecideAppend(nil, items[i].Snap)
	}
	return out
}
