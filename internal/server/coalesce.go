package server

import (
	"fmt"
	"net/http"
	"sync"

	"megh/internal/core"
	"megh/internal/sim"
)

// This file holds cross-request batch coalescing: concurrent decide and
// decide/batch requests against one session are merged into a single
// observe→decide run per session-lock acquisition, and the results are
// demultiplexed back to each waiter in arrival order.
//
// Mechanics: the first request to arrive for a session with no open round
// becomes the round's *leader*. If no earlier round is still executing,
// the leader fires immediately — an uncontended decide pays no added
// latency. While a previous round's merged batch is executing, the leader
// waits for it to complete — it could not take the session lock before
// then anyway, and the execution window is exactly when concurrent
// requests pile up, so this is group commit: everything that arrives
// behind an in-flight decide merges into the next round. On firing, the
// leader detaches the round, runs every waiter's items in join order under
// one withLearner acquisition (decideRound), slices the results back per
// waiter, and wakes them. A round also fires early
// when its item count reaches MaxBatchItems; a joiner that would push it
// past the cap instead fires the open round immediately and starts a new
// one as leader.
//
// Ordering guarantee: within one merged round, items are decided in waiter
// join order and each response carries exactly its own items' decisions in
// request order. Across rounds, decides serialise on the session lock;
// concurrent requests that land in different rounds have no relative
// ordering guarantee — the same contract they had without coalescing.
//
// Decision identity: a round is the sequential Observe/Decide loop over its
// items — what core.DecideBatch is too — so coalescing changes *when* the
// learner runs, never what it decides — pinned end to end by
// TestCoalescingPreservesDecisions.

// decideItem is one decision query as the handlers hand it to a round: the
// request resolveBase accepted, the base it resolved to, and the feedback
// observed since the previous query, if any. The server's counterpart of
// core.BatchItem, one step earlier: there is no snapshot yet, because the
// session has a single one (session.snap) and only the round leader, holding
// the session lock, may fill it.
type decideItem struct {
	state    *StateRequest
	base     *snapshotBase
	feedback *sim.Feedback
}

// coalesceWaiter carries one request's items into a round and its slice of
// the results back out.
type coalesceWaiter struct {
	items []decideItem
	out   [][]sim.Migration
	err   error
}

// coalesceRound is one open merge window.
type coalesceRound struct {
	waiters []*coalesceWaiter
	items   int
	// fired guards the fire channel's single close; both the capacity check
	// at join and a displacing joiner may try to fire. Written under the
	// coalescer mutex.
	fired bool
	// fire wakes the waiting leader early (capacity reached / displaced).
	fire chan struct{}
	// done is closed by the leader once every waiter's out/err is set.
	done chan struct{}
}

// fireNowLocked wakes the leader before the round ahead of it completes.
// Callers hold the coalescer mutex.
func (r *coalesceRound) fireNowLocked() {
	if !r.fired {
		r.fired = true
		close(r.fire)
	}
}

// coalescer is a session's merge point. The zero value is ready to use.
type coalescer struct {
	mu  sync.Mutex
	cur *coalesceRound
	// lastDone is the done channel of the most recently dispatched round:
	// open while that round's merged batch is still executing. A new
	// leader waits on it before firing, so a round sweeps up everything
	// that arrives during the previous round's execution; nil or closed,
	// the leader fires immediately.
	lastDone chan struct{}
}

// decideRound runs the waiters' items against the learner in join order —
// per item, Observe the feedback if any and emit its step event as a
// feedback post would, fill the session's snapshot, decide — and returns
// one caller-owned migration slice per item. It is core.DecideBatch's loop
// with the snapshot built between the two calls instead of ahead of them.
// Callers hold the session lock (it runs inside withLearner's fn).
func (s *session) decideRound(l *core.Megh, waiters []*coalesceWaiter, total int) [][]sim.Migration {
	if s.snap == nil {
		s.snap = new(retainedSnapshot)
	}
	outs := make([][]sim.Migration, 0, total)
	for _, w := range waiters {
		for i := range w.items {
			it := &w.items[i]
			if it.feedback != nil {
				l.Observe(it.feedback)
				s.traceStep(it.feedback)
			}
			snap := s.snap.fill(it.state, it.base, s.spec.OverloadThreshold, s.spec.StepSeconds)
			outs = append(outs, l.DecideAppend(nil, snap))
		}
	}
	s.decisions += total
	s.lastStep = s.snap.snap.Step
	// One call covers the whole round: the tracker diffs the learner's
	// cumulative stats, so deltas stay exact.
	s.health.AfterDecide()
	return outs
}

// coalesceDecide routes one request's items through the session's
// coalescer and returns the request's own per-item decision slices.
func (s *Service) coalesceDecide(sess *session, items []decideItem) ([][]sim.Migration, error) {
	w := &coalesceWaiter{items: items}
	c := &sess.coal
	c.mu.Lock()
	round := c.cur
	if round != nil && round.items+len(items) > MaxBatchItems {
		// Joining would overflow the batch cap: fire the open round now and
		// open a fresh one with this request as leader.
		round.fireNowLocked()
		round = nil
		c.cur = nil
	}
	leader := round == nil
	var prev chan struct{}
	if leader {
		round = &coalesceRound{fire: make(chan struct{}), done: make(chan struct{})}
		c.cur = round
		prev = c.lastDone
	}
	round.waiters = append(round.waiters, w)
	round.items += len(items)
	if round.items >= MaxBatchItems {
		round.fireNowLocked()
	}
	c.mu.Unlock()

	if leader {
		s.leadRound(sess, round, prev)
	} else {
		<-round.done
	}
	return w.out, w.err
}

// leadRound waits out the merge window, detaches the round, runs the
// merged batch, and demultiplexes the results. The merge window is zero
// when no earlier round is still executing (prev nil or closed): an
// uncontended decide fires immediately. Behind an in-flight round it is
// that round's remaining execution time — group commit.
func (s *Service) leadRound(sess *session, round *coalesceRound, prev chan struct{}) {
	if prev != nil {
		select {
		case <-prev:
		case <-round.fire:
		}
	}
	c := &sess.coal
	c.mu.Lock()
	if c.cur == round {
		c.cur = nil
	}
	round.fired = true
	c.lastDone = round.done
	waiters := round.waiters
	total := round.items
	c.mu.Unlock()
	// From here the round is closed: no joiner can reach it, so waiters and
	// total are stable without the lock.

	s.coalRounds.Inc()
	s.coalItems.Add(int64(total))
	if len(waiters) > 1 {
		s.coalMerged.Add(int64(len(waiters)))
	}

	// A panic below (learner fed a state it cannot accept) must not strand
	// the followers on round.done: it is converted into an error delivered
	// to every waiter, which each handler answers as a 500.
	outs, err := func() (outs [][]sim.Migration, err error) {
		defer func() {
			if p := recover(); p != nil {
				outs, err = nil, fmt.Errorf("internal error: coalesced decide: %v", p)
			}
		}()
		err = s.mgr.withLearner(sess, func(l *core.Megh) error {
			outs = sess.decideRound(l, waiters, total)
			return nil
		})
		return outs, err
	}()

	off := 0
	for _, w := range waiters {
		if err != nil {
			w.err = err
		} else {
			w.out = outs[off : off+len(w.items)]
		}
		off += len(w.items)
	}
	close(round.done)
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
