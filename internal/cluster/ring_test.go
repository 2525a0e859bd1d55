package cluster

import (
	"fmt"
	"math"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("session-%d", i)
	}
	return out
}

func nodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

// TestRingBalance pins the load-spread guarantee the vnode count buys:
// with the default vnodes, no node of a 5-node ring owns more than twice
// nor less than half its fair share of 10k keys.
func TestRingBalance(t *testing.T) {
	members := nodes(5)
	r := NewRing(members, 0)
	counts := map[string]int{}
	ks := keys(10000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	fair := float64(len(ks)) / float64(len(members))
	for _, m := range members {
		c := float64(counts[m])
		if c < fair/2 || c > fair*2 {
			t.Errorf("node %s owns %.0f keys, fair share %.0f (spread beyond [0.5, 2]×)", m, c, fair)
		}
	}
	// And the normalized spread (coefficient of variation) stays modest.
	var sumSq float64
	for _, m := range members {
		d := float64(counts[m]) - fair
		sumSq += d * d
	}
	cv := math.Sqrt(sumSq/float64(len(members))) / fair
	if cv > 0.35 {
		t.Errorf("owner distribution CV %.3f > 0.35", cv)
	}
}

// TestRingMinimalDisruption is the consistent-hashing contract: removing
// one node reassigns only the keys that node owned, and every reassigned
// key lands on a surviving node.
func TestRingMinimalDisruption(t *testing.T) {
	members := nodes(6)
	before := NewRing(members, 0)
	after := NewRing(members[1:], 0) // node-0 departs

	moved := 0
	for _, k := range keys(5000) {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob != "node-0" && ob != oa {
			t.Fatalf("key %q moved %s→%s though its owner survived", k, ob, oa)
		}
		if ob == "node-0" {
			moved++
			if oa == "node-0" {
				t.Fatalf("key %q still owned by departed node", k)
			}
		}
	}
	if moved == 0 {
		t.Fatal("departed node owned no keys; balance test should have caught this")
	}
}

// TestRingJoinDisruption is the mirror contract: a joining node only
// steals keys, it never shuffles keys between incumbents.
func TestRingJoinDisruption(t *testing.T) {
	before := NewRing(nodes(5), 0)
	after := NewRing(nodes(6), 0) // node-5 joins
	for _, k := range keys(5000) {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob != oa && oa != "node-5" {
			t.Fatalf("key %q moved %s→%s on a join that only added node-5", k, ob, oa)
		}
	}
}

// TestRingOwnersDistinct pins the replica-set shape: owner first, all
// entries distinct, count clamped to the membership.
func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing(nodes(4), 0)
	for _, k := range keys(500) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: got %d owners, want 3", k, len(owners))
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("key %q: Owners[0]=%s != Owner=%s", k, owners[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate replica %s in %v", k, o, owners)
			}
			seen[o] = true
		}
	}
	// Asking for more replicas than members returns them all, once each.
	if got := r.Owners("anything", 99); len(got) != 4 {
		t.Fatalf("Owners(n>members) returned %d entries, want 4", len(got))
	}
}

// TestRingDeterminism: placement is a pure function of the member set —
// construction order must not matter.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"c", "a", "b"}, 32)
	b := NewRing([]string{"b", "c", "a"}, 32)
	for _, k := range keys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owner differs across construction orders", k)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
	if got := empty.Owners("x", 2); got != nil {
		t.Fatalf("empty ring owners = %v, want nil", got)
	}
	single := NewRing([]string{"only"}, 0)
	if got := single.Owner("anything"); got != "only" {
		t.Fatalf("single ring owner = %q", got)
	}
	if got := single.Owners("k", 0); got != nil {
		t.Fatalf("Owners(n=0) = %v, want nil", got)
	}
	dup := NewRing([]string{"a", "a", "b"}, 0)
	if dup.Len() != 2 {
		t.Fatalf("duplicate members collapsed to %d, want 2", dup.Len())
	}
	if got := NewRing([]string{"x", "y"}, 1).members; len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("members = %v", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "node-1", "dc_west.3", "A9"} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q) = %v, want nil", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "-leading", ".dot", "has space", "sl/ash", string(long)} {
		if err := validName(bad); err == nil {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
}
