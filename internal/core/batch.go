package core

import "megh/internal/sim"

// This file holds the batched decide path: DecideBatch, which drives many
// observe→decide steps through one call. It is decision-identical to the
// equivalent sequential Observe/Decide loop — batching amortises transport
// and locking, never what the learner decides.

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
// (pinned by TestDecideBatchMatchesSequential); what it amortises is
// everything *around* the learner: one call for the whole batch. Per-item
// tracer events and metrics fire exactly as they would sequentially.
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
