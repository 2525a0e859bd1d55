package core

// This file holds the learner's cheap, always-on learning-health
// accumulators: cumulative sums the health layer (internal/health) polls
// and diffs to derive windowed rates (θ drift per decide, Bellman residual
// EWMAs) without adding any work to the disabled path. The accumulators are
// telemetry, not learner state — they are not persisted in checkpoints, and
// a restored learner restarts them from zero (pollers rebase on reattach).

// LearnStats is a cumulative snapshot of learning activity since stats were
// enabled. All fields are monotone, so a poller can subtract consecutive
// readings to get exact per-window aggregates regardless of how many
// decides (or batch items) elapsed between polls.
type LearnStats struct {
	// Decides counts completed Decide calls.
	Decides int64
	// Applied counts LSPI transitions applied.
	Applied int64
	// Skipped counts transitions skipped as numerically singular.
	Skipped int64
	// DriftSqSum accumulates the squared magnitude of every θ write the
	// update path performs: Σ (Δθ_i)² across the rank-1 column passes. Its
	// square-rooted per-window delta is a tight proxy for ‖Δθ‖₂ over the
	// window (exact when the scaled and cost column passes touch disjoint
	// indices; within √2 otherwise).
	DriftSqSum float64
	// ResidualAbsSum accumulates |θ[a] − γ·θ[b] − c| per rank-1
	// application, evaluated against the pre-update θ — the Bellman/TD
	// residual of the transition being learned. ResidualCount is the number
	// of samples folded in.
	ResidualAbsSum float64
	ResidualCount  int64
	// NonFinite counts NaN/Inf residuals or drift contributions — any
	// value here means the learner state is numerically corrupt.
	NonFinite int64
}

// addDrift folds one θ scatter's squared-delta sum into the accumulators;
// a no-op on the nil stats of a learner that never enabled them.
func (ls *LearnStats) addDrift(dsq float64) {
	if ls == nil {
		return
	}
	if isBad(dsq) {
		ls.NonFinite++
	} else {
		ls.DriftSqSum += dsq
	}
}

// EnableLearnStats turns on the in-line learning-health accumulation.
// Idempotent; enabling costs a few scalar ops per rank-1 update (the θ
// scatter computes its squared-delta sum either way). When never enabled
// the update path pays nil pointer tests and the untraced Decide stays
// 0 allocs/op.
func (m *Megh) EnableLearnStats() {
	if m.learnStats == nil {
		m.learnStats = &LearnStats{}
	}
}

// LearnStats returns a copy of the current accumulators; the zero value
// when stats were never enabled.
func (m *Megh) LearnStats() LearnStats {
	if m.learnStats == nil {
		return LearnStats{}
	}
	return *m.learnStats
}

// DebugBZRow returns (B·z)[i] — the dot product of row i of B with z —
// computed against the live state without cloning either operand. The
// θ = B·z consistency probe compares it with Theta(i).
func (m *Megh) DebugBZRow(i int) float64 {
	var sum float64
	row := m.b.Row(i)
	row.Range(func(j int, x float64) bool {
		sum += x * m.b.Z(j)
		return true
	})
	return sum
}

// Theta returns θ[i], the cell B's record of action i keeps.
func (m *Megh) Theta(i int) float64 { return m.b.Theta(i) }

func isBad(v float64) bool {
	// NaN or ±Inf without calling math (keeps this inlineable): NaN is the
	// only value that differs from itself; Inf−Inf is NaN.
	return v != v || v-v != 0
}
