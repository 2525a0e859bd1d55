package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// State is a peer's liveness as seen from this node.
type State int

const (
	// StateAlive peers take ring ownership and receive replicas.
	StateAlive State = iota
	// StateSuspect peers missed at least one heartbeat but fewer than
	// FailAfter in a row; they keep their ring points (evicting on one
	// dropped probe would thrash placement).
	StateSuspect
	// StateDead peers missed FailAfter consecutive heartbeats; their ring
	// points are gone and their sessions belong to the clockwise
	// successors until they answer a probe again.
	StateDead
)

// String implements fmt.Stringer for the /v2/cluster JSON body.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Peer identifies one meghd node: a stable name (its ring identity) and
// the base URL peers use to reach it.
type Peer struct {
	Name string
	URL  string
}

// PeerStatus is one row of the membership table snapshot.
type PeerStatus struct {
	Peer
	State State
	// Fails is the current consecutive probe-failure count.
	Fails int
}

// DefFailAfter is the default number of consecutive probe failures that
// mark a peer dead.
const DefFailAfter = 3

// Membership is this node's view of the cluster: itself (always alive in
// its own view) plus a table of peers whose states move on reported probe
// outcomes. The view is local — two nodes may disagree transiently — but
// converges because every node probes every peer. Epoch counts alive-set
// changes, so callers can rebuild rings and trigger rebalances only when
// placement actually moved. Safe for concurrent use.
type Membership struct {
	mu        sync.Mutex
	self      Peer
	failAfter int
	peers     map[string]*peerInfo
	epoch     int64
}

type peerInfo struct {
	url   string
	fails int
	state State
}

// NewMembership builds the table. Peers containing the self name (a
// common static-config shape: every node gets the same -cluster-peers
// list) are skipped rather than rejected. failAfter <= 0 means
// DefFailAfter.
func NewMembership(self Peer, peers []Peer, failAfter int) (*Membership, error) {
	if err := validName(self.Name); err != nil {
		return nil, err
	}
	if failAfter <= 0 {
		failAfter = DefFailAfter
	}
	m := &Membership{
		self:      self,
		failAfter: failAfter,
		peers:     make(map[string]*peerInfo, len(peers)),
		epoch:     1,
	}
	for _, p := range peers {
		if p.Name == self.Name {
			continue
		}
		if err := validName(p.Name); err != nil {
			return nil, err
		}
		if p.URL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", p.Name)
		}
		if _, dup := m.peers[p.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		m.peers[p.Name] = &peerInfo{url: p.URL, state: StateAlive}
	}
	return m, nil
}

// ReportSuccess records a successful probe of peer name. A dead peer
// rejoining bumps the epoch (its ring points come back).
func (m *Membership) ReportSuccess(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[name]
	if p == nil {
		return
	}
	if p.state == StateDead {
		m.epoch++
	}
	p.fails = 0
	p.state = StateAlive
}

// ReportFailure records a failed probe of peer name. Crossing the
// FailAfter threshold moves the peer to dead and bumps the epoch.
func (m *Membership) ReportFailure(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[name]
	if p == nil || p.state == StateDead {
		return
	}
	p.fails++
	if p.fails >= m.failAfter {
		p.state = StateDead
		m.epoch++
	} else {
		p.state = StateSuspect
	}
}

// Alive returns the sorted names currently holding ring points: self plus
// every non-dead peer (suspects stay — see StateSuspect).
func (m *Membership) Alive() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.peers)+1)
	out = append(out, m.self.Name)
	for name, p := range m.peers {
		if p.state != StateDead {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Leader returns the lexicographically smallest alive name — a
// deterministic bully-style election every node computes identically from
// a converged view, with no extra protocol. Split views elect split
// leaders for at most the probe-convergence window; the rebalance action
// a leader triggers is idempotent, so a transient dual leader is safe.
func (m *Membership) Leader() string {
	alive := m.Alive()
	return alive[0] // self is always present
}

// IsLeader reports whether this node currently considers itself leader.
func (m *Membership) IsLeader() bool { return m.Leader() == m.self.Name }

// Epoch returns the alive-set generation. It only moves when ring
// placement moves.
func (m *Membership) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// URL resolves a node name to its base URL ("" for self or unknown names
// — the caller never proxies to itself).
func (m *Membership) URL(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.peers[name]; p != nil {
		return p.url
	}
	return ""
}

// Table snapshots every row — self first, peers sorted by name — for the
// /v2/cluster body and the prober's worklist.
func (m *Membership) Table() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(m.peers)+1)
	out = append(out, PeerStatus{Peer: m.self, State: StateAlive})
	names := make([]string, 0, len(m.peers))
	for name := range m.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := m.peers[name]
		out = append(out, PeerStatus{
			Peer:  Peer{Name: name, URL: p.url},
			State: p.state,
			Fails: p.fails,
		})
	}
	return out
}
