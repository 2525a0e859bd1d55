package server

import (
	"fmt"
	"net/http"
	"sync"

	"megh/internal/core"
	"megh/internal/sim"
)

// This file holds what Service.decide — the one path behind the decide and
// decide/batch handlers — runs once a request is decoded and validated: the
// items it hands over, the round that runs them under one session-lock hold,
// and the admission gate in front of it.
// Requests to one session run one at a time on its lock, in the order they
// take it; a caller that wants many decisions per lock hold sends one
// decide/batch.

// decideItem is one decision query as Service.decide hands it to
// decideRound: the request resolveBase accepted, the base it resolved to,
// and, when observe is set, the feedback observed since the previous query.
// The server's counterpart of core.BatchItem, one step earlier: there is no
// snapshot yet, because the session has a single one (session.snap) and
// only the holder of the session lock may fill it.
type decideItem struct {
	state    *StateRequest
	base     *snapshotBase
	feedback sim.Feedback
	observe  bool
}

// decideRound runs items against the learner in order — per item, Observe
// the feedback if any and emit its step event as a feedback post would,
// fill the session's snapshot, decide — and returns one caller-owned
// migration slice per item. It is core.DecideBatch's loop with the snapshot
// built between the two calls instead of ahead of them. Callers hold the
// session lock (it runs inside withLearner's fn).
func (s *session) decideRound(l *core.Megh, items []decideItem) [][]sim.Migration {
	if s.snap == nil {
		s.snap = new(retainedSnapshot)
	}
	outs := make([][]sim.Migration, len(items))
	for i := range items {
		it := &items[i]
		if it.observe {
			l.Observe(&it.feedback)
			s.traceStep(&it.feedback)
		}
		snap := s.snap.fill(it.state, it.base, s.spec.OverloadThreshold, s.spec.StepSeconds)
		outs[i] = l.DecideAppend(nil, snap)
	}
	s.decisions += len(items)
	s.lastStep = s.snap.snap.Step
	// One call covers the whole request: the tracker diffs the learner's
	// cumulative stats, so deltas stay exact.
	s.health.AfterDecide()
	return outs
}

// admitGate bounds concurrent decide/feedback work, weighted by batch item
// count: a K-item batch holds K slots, so -max-inflight bounds in-flight
// *decisions*, not requests. A nil gate admits everything.
type admitGate struct {
	mu       sync.Mutex
	capacity int
	used     int
}

// tryAcquire claims n slots, returning the release closure, or nil when
// the gate is full. n clamps to [1, capacity], so a maximum-size batch is
// always admittable on an idle gate rather than deadlocked by its own
// weight.
func (g *admitGate) tryAcquire(n int) (release func()) {
	if g == nil {
		return func() {}
	}
	if n < 1 {
		n = 1
	}
	if n > g.capacity {
		n = g.capacity
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.used+n > g.capacity {
		return nil
	}
	g.used += n
	return func() {
		g.mu.Lock()
		g.used -= n
		g.mu.Unlock()
	}
}

// admitN acquires weight admission slots. A nil release means the request
// was refused with 429 (+ Retry-After) and the handler must return;
// otherwise the caller defers release().
func (s *Service) admitN(w http.ResponseWriter, weight int) (release func()) {
	if release = s.gate.tryAcquire(weight); release != nil {
		return release
	}
	s.throttled.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("server: admission gate full (%d decision slots)", s.gate.capacity))
	return nil
}
