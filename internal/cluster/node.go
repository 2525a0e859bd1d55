package cluster

import (
	"fmt"
	"sync"
)

// DefReplicas is the default number of checkpoint copies per session
// (owner + 1 successor).
const DefReplicas = 2

// Config parameterises one node's view of the cluster.
type Config struct {
	// Self is this node: Name is its ring identity, URL the address it
	// advertises to peers (echoed in /v2/cluster bodies and used by
	// peers proxying to it).
	Self Peer
	// Peers are the other nodes. A row matching Self.Name is skipped, so
	// every node can ship the same static list.
	Peers []Peer
	// Replicas is how many nodes hold each session's checkpoint (owner
	// included). 0 means DefReplicas; it is clamped to the cluster size
	// at lookup time, so a 2-node cluster with Replicas=3 just replicates
	// to both.
	Replicas int
	// FailAfter is the consecutive probe failures marking a peer dead;
	// 0 means DefFailAfter.
	FailAfter int
}

// Node combines the membership table with a ring cached per alive-set
// epoch: lookups rebuild the ring only when membership actually changed.
// Safe for concurrent use.
type Node struct {
	cfg Config
	mem *Membership

	mu        sync.Mutex
	ring      *Ring
	ringEpoch int64
}

// NewNode validates the configuration and builds the node with every
// configured peer initially alive.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("cluster: negative replicas %d", cfg.Replicas)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefReplicas
	}
	mem, err := NewMembership(cfg.Self, cfg.Peers, cfg.FailAfter)
	if err != nil {
		return nil, err
	}
	return &Node{cfg: cfg, mem: mem}, nil
}

// Membership exposes the table for the prober loop.
func (n *Node) Membership() *Membership { return n.mem }

// Self returns this node's identity.
func (n *Node) Self() Peer { return n.cfg.Self }

// Replicas returns the configured replication factor.
func (n *Node) Replicas() int { return n.cfg.Replicas }

// currentRing returns the ring for the current alive set, rebuilding it
// when the epoch moved since the cached build.
func (n *Node) currentRing() *Ring {
	epoch := n.mem.Epoch()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring == nil || n.ringEpoch != epoch {
		n.ring = NewRing(n.mem.Alive(), DefVNodes)
		n.ringEpoch = epoch
	}
	return n.ring
}

// Owner returns the node owning the session key under the current view.
func (n *Node) Owner(key string) Peer {
	return n.peerFor(n.currentRing().Owner(key))
}

// Owners returns the session's replica set under the current view: owner
// first, then the distinct clockwise successors, Replicas entries at most.
func (n *Node) Owners(key string) []Peer {
	names := n.currentRing().Owners(key, n.cfg.Replicas)
	out := make([]Peer, len(names))
	for i, name := range names {
		out[i] = n.peerFor(name)
	}
	return out
}

// OwnsLocally reports whether this node owns the session key.
func (n *Node) OwnsLocally(key string) bool {
	return n.currentRing().Owner(key) == n.cfg.Self.Name
}

// peerFor resolves a name back to a Peer with its URL.
func (n *Node) peerFor(name string) Peer {
	if name == n.cfg.Self.Name {
		return n.cfg.Self
	}
	return Peer{Name: name, URL: n.mem.URL(name)}
}

// Leader returns the current leader's name (see Membership.Leader).
func (n *Node) Leader() string { return n.mem.Leader() }

// IsLeader reports whether this node considers itself leader.
func (n *Node) IsLeader() bool { return n.mem.IsLeader() }

// Epoch returns the alive-set generation backing the current ring.
func (n *Node) Epoch() int64 { return n.mem.Epoch() }
