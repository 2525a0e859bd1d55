// Package cluster provides the coordination primitives behind meghd's
// cluster mode: a consistent-hash ring assigning session IDs to nodes, a
// heartbeat-driven membership table with alive/suspect/dead states, and a
// deterministic leader election (lowest alive node name wins). The package
// is transport-free — probing peers and moving checkpoint bytes are the
// HTTP layer's job (internal/server) — so every placement and election
// decision is a pure function of the membership view and unit-testable
// without sockets.
//
// Placement model: each node contributes DefVNodes virtual points to a hash
// ring; a session ID hashes to the first point at or clockwise of it, and
// its replica set is the first Replicas distinct nodes walking clockwise
// from there. Because only the departed node's points leave the ring when
// a member dies, membership churn reassigns only the sessions that node
// owned — the property the rebalancer and the failover path rely on.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefVNodes is the number of virtual points each member contributes to a
// Node's ring, and NewRing's default. 64 keeps the owner distribution within
// a few percent of uniform at small cluster sizes while keeping ring rebuilds
// cheap. It is a constant, not a setting, so every node builds the same ring
// from the same alive set.
const DefVNodes = 64

// Ring is an immutable consistent-hash ring over a set of member names.
// Build a new one when membership changes; lookups are safe for
// concurrent use.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted member names
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring with vnodes virtual points per member (vnodes <= 0
// means DefVNodes). Duplicate member names collapse into one. The ring is
// a pure function of the member set: any two nodes with the same view
// compute identical placements.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefVNodes
	}
	uniq := make(map[string]bool, len(members))
	sorted := make([]string, 0, len(members))
	for _, m := range members {
		if !uniq[m] {
			uniq[m] = true
			sorted = append(sorted, m)
		}
	}
	sort.Strings(sorted)
	r := &Ring{
		members: sorted,
		points:  make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for i, m := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(m + "#" + strconv.Itoa(v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (astronomically rare, but the fuzzer finds everything)
		// break by member index so the ordering — and therefore placement —
		// stays deterministic.
		return a.member < b.member
	})
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct members for key, owner first, then the
// distinct successors walking clockwise — the key's replica set. Fewer
// than n members on the ring returns them all.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	// First point at or clockwise of h; wrap to 0 past the last point.
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// hash64 is FNV-1a over the key bytes, finished with a splitmix64-style
// avalanche — FNV alone leaves the near-identical vnode strings
// ("node#0", "node#1", …) clustered on the ring, which ruins balance.
// Both stages are fixed arithmetic, so placement is identical on every
// node and across processes and Go versions.
func hash64(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// validName accepts the same shape as server session IDs: an alphanumeric
// first byte then alphanumerics, '.', '_' or '-', at most 64 bytes. Node
// names embed in hash keys and HTTP headers, so the charset is kept tame.
func validName(name string) error {
	if len(name) == 0 || len(name) > 64 {
		return fmt.Errorf("cluster: node name %q must be 1..64 bytes", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return fmt.Errorf("cluster: node name %q has invalid byte %q at %d", name, c, i)
		}
	}
	return nil
}
