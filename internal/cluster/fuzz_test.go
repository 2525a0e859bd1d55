package cluster

import (
	"strings"
	"testing"
)

// FuzzRingOwners hammers the ring with arbitrary member lists, keys,
// replica counts, and vnode counts. The oracle is the placement contract:
// no panic, owners drawn from the member set with no duplicates, count
// clamped correctly, Owner agreeing with Owners[0], and placement being a
// pure function of the (deduplicated) member set — independent of input
// order.
func FuzzRingOwners(f *testing.F) {
	f.Add("a,b,c", "session-1", 2, 64)
	f.Add("", "orphan", 1, 0)
	f.Add("solo", "k", 99, 1)
	f.Add("n0,n1,n2,n3,n4,n5,n6,n7", "dc-west.shard_9", 3, 16)
	f.Add("dup,dup,other", "x", 2, 7)

	f.Fuzz(func(t *testing.T, memberCSV, key string, n, vnodes int) {
		members := strings.Split(memberCSV, ",")
		if len(members) > 64 {
			members = members[:64]
		}
		// Bound vnodes: the ring cost is members×vnodes and the contract is
		// vnode-count independent, so huge values only waste fuzz cycles.
		if vnodes > 128 {
			vnodes = vnodes % 128
		}
		r := NewRing(members, vnodes)

		memberSet := map[string]bool{}
		for _, m := range r.members {
			memberSet[m] = true
		}
		owners := r.Owners(key, n)
		if n <= 0 || len(memberSet) == 0 {
			if owners != nil {
				t.Fatalf("Owners(n=%d, members=%d) = %v, want nil", n, len(memberSet), owners)
			}
			if len(memberSet) == 0 && r.Owner(key) != "" {
				t.Fatalf("Owner on empty ring = %q", r.Owner(key))
			}
			return
		}
		want := n
		if want > len(memberSet) {
			want = len(memberSet)
		}
		if len(owners) != want {
			t.Fatalf("Owners returned %d entries, want %d (n=%d, members=%d)",
				len(owners), want, n, len(memberSet))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if !memberSet[o] {
				t.Fatalf("owner %q not in member set", o)
			}
			if seen[o] {
				t.Fatalf("duplicate owner %q in %v", o, owners)
			}
			seen[o] = true
		}
		if r.Owner(key) != owners[0] {
			t.Fatalf("Owner=%q disagrees with Owners[0]=%q", r.Owner(key), owners[0])
		}

		// Input order must not matter: rebuild with the list reversed.
		rev := make([]string, len(members))
		for i, m := range members {
			rev[len(members)-1-i] = m
		}
		if got := NewRing(rev, vnodes).Owner(key); got != owners[0] {
			t.Fatalf("owner %q changed to %q when member order reversed", owners[0], got)
		}
	})
}
