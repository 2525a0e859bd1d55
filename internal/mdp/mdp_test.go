package mdp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestActionIndexRoundTrip(t *testing.T) {
	const hosts = 7
	for vm := 0; vm < 5; vm++ {
		for h := 0; h < hosts; h++ {
			a := Action{VM: vm, Host: h}
			idx := a.Index(hosts)
			if got := (Action{VM: idx / hosts, Host: idx % hosts}); got != a {
				t.Fatalf("round trip %+v → %d → %+v", a, idx, got)
			}
		}
	}
}

func TestActionIndexDense(t *testing.T) {
	// Indices must tile 0..N·M−1 without gaps.
	const vms, hosts = 4, 3
	seen := make(map[int]bool)
	for vm := 0; vm < vms; vm++ {
		for h := 0; h < hosts; h++ {
			seen[Action{VM: vm, Host: h}.Index(hosts)] = true
		}
	}
	if len(seen) != SpaceSize(vms, hosts) {
		t.Fatalf("indices cover %d cells, want %d", len(seen), SpaceSize(vms, hosts))
	}
	for i := 0; i < vms*hosts; i++ {
		if !seen[i] {
			t.Fatalf("index %d missing", i)
		}
	}
}

func TestActionIndexPanics(t *testing.T) {
	for i, f := range []func(){
		func() { Action{VM: 0, Host: 0}.Index(0) },
		func() { Action{VM: -1, Host: 0}.Index(3) },
		func() { Action{VM: 0, Host: 3}.Index(3) },
		func() { SpaceSize(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: Index is injective over random valid actions.
func TestQuickActionIndexInjective(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hosts := 1 + r.Intn(20)
		a := Action{VM: r.Intn(30), Host: r.Intn(hosts)}
		b := Action{VM: r.Intn(30), Host: r.Intn(hosts)}
		if a == b {
			return a.Index(hosts) == b.Index(hosts)
		}
		return a.Index(hosts) != b.Index(hosts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
