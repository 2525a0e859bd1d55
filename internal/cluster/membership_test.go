package cluster

import (
	"reflect"
	"testing"
)

func threeNode(t *testing.T) *Membership {
	t.Helper()
	m, err := NewMembership(
		Peer{Name: "b", URL: "http://b"},
		[]Peer{
			{Name: "a", URL: "http://a"},
			{Name: "b", URL: "http://b"}, // self row in the shared static list: skipped
			{Name: "c", URL: "http://c"},
		}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMembershipTransitions(t *testing.T) {
	m := threeNode(t)
	if got := m.Alive(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("initial alive = %v", got)
	}
	e0 := m.Epoch()

	// One failure: suspect, still alive (ring unchanged, epoch unchanged).
	m.ReportFailure("a")
	if got := m.Alive(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("suspect peer left the alive set: %v", got)
	}
	if m.Epoch() != e0 {
		t.Fatal("epoch moved on suspect transition")
	}
	if st := m.Table()[1]; st.Name != "a" || st.State != StateSuspect || st.Fails != 1 {
		t.Fatalf("table row for a = %+v", st)
	}

	// Second consecutive failure crosses FailAfter=2: dead, epoch bumps.
	m.ReportFailure("a")
	if got := m.Alive(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("alive after death = %v", got)
	}
	if m.Epoch() != e0+1 {
		t.Fatalf("epoch = %d, want %d", m.Epoch(), e0+1)
	}
	// Further failures on a dead peer are no-ops.
	m.ReportFailure("a")
	if m.Epoch() != e0+1 {
		t.Fatal("epoch moved on failure of an already-dead peer")
	}

	// Recovery: back to alive, epoch bumps again.
	m.ReportSuccess("a")
	if got := m.Alive(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("alive after recovery = %v", got)
	}
	if m.Epoch() != e0+2 {
		t.Fatalf("epoch after recovery = %d, want %d", m.Epoch(), e0+2)
	}
}

func TestMembershipSuccessResetsFails(t *testing.T) {
	m := threeNode(t)
	m.ReportFailure("c")
	m.ReportSuccess("c")
	m.ReportFailure("c")
	// The earlier success reset the streak, so one new failure is only
	// suspect under FailAfter=2.
	if got := m.Alive(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("alive = %v; success did not reset the failure streak", got)
	}
}

func TestMembershipLeader(t *testing.T) {
	m := threeNode(t)
	if m.Leader() != "a" || m.IsLeader() {
		t.Fatalf("leader = %s (isLeader=%t), want a", m.Leader(), m.IsLeader())
	}
	// Leadership falls to the next-smallest alive name when a dies.
	m.ReportFailure("a")
	m.ReportFailure("a")
	if m.Leader() != "b" || !m.IsLeader() {
		t.Fatalf("leader after a's death = %s (isLeader=%t), want self b", m.Leader(), m.IsLeader())
	}
}

func TestMembershipIgnoresUnknownPeers(t *testing.T) {
	m := threeNode(t)
	e := m.Epoch()
	m.ReportFailure("nobody")
	m.ReportSuccess("nobody")
	if m.Epoch() != e {
		t.Fatal("reports for unknown peers changed the epoch")
	}
	if m.URL("nobody") != "" || m.URL("b") != "" {
		t.Fatal("URL for unknown/self should be empty")
	}
	if m.URL("a") != "http://a" {
		t.Fatalf("URL(a) = %q", m.URL("a"))
	}
}

func TestMembershipValidation(t *testing.T) {
	if _, err := NewMembership(Peer{Name: "bad name"}, nil, 0); err == nil {
		t.Error("invalid self name accepted")
	}
	if _, err := NewMembership(Peer{Name: "a"}, []Peer{{Name: "p", URL: ""}}, 0); err == nil {
		t.Error("peer without URL accepted")
	}
	if _, err := NewMembership(Peer{Name: "a"}, []Peer{
		{Name: "p", URL: "http://1"}, {Name: "p", URL: "http://2"},
	}, 0); err == nil {
		t.Error("duplicate peer name accepted")
	}
	if _, err := NewMembership(Peer{Name: "a"}, []Peer{{Name: "b/ad", URL: "http://x"}}, 0); err == nil {
		t.Error("invalid peer name accepted")
	}
	m, err := NewMembership(Peer{Name: "solo"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.failAfter != DefFailAfter {
		t.Fatalf("FailAfter default = %d", m.failAfter)
	}
	if !m.IsLeader() {
		t.Fatal("single node must lead itself")
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{StateAlive: "alive", StateSuspect: "suspect", StateDead: "dead"} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestNodeOwnershipFollowsMembership(t *testing.T) {
	n, err := NewNode(Config{
		Self: Peer{Name: "b", URL: "http://b"},
		Peers: []Peer{
			{Name: "a", URL: "http://a"},
			{Name: "c", URL: "http://c"},
		},
		Replicas:  2,
		FailAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every key this node doesn't own is owned by a peer with a URL, and
	// the replica set starts at the owner.
	ownedBefore := map[string]string{}
	for _, k := range keys(300) {
		owner := n.Owner(k)
		ownedBefore[k] = owner.Name
		if owner.Name != "b" && owner.URL == "" {
			t.Fatalf("remote owner %q has no URL", owner.Name)
		}
		owners := n.Owners(k)
		if len(owners) != 2 || owners[0].Name != owner.Name {
			t.Fatalf("Owners(%q) = %v", k, owners)
		}
		if n.OwnsLocally(k) != (owner.Name == "b") {
			t.Fatalf("OwnsLocally(%q) disagrees with Owner", k)
		}
	}

	// Kill node a: only a's keys move, and the cached ring refreshes via
	// the epoch bump.
	epoch := n.Epoch()
	n.Membership().ReportFailure("a")
	if n.Epoch() != epoch+1 {
		t.Fatalf("epoch did not advance on death: %d", n.Epoch())
	}
	for k, before := range ownedBefore {
		after := n.Owner(k).Name
		if before != "a" && before != after {
			t.Fatalf("key %q moved %s→%s though its owner survived", k, before, after)
		}
		if after == "a" {
			t.Fatalf("key %q still owned by dead node", k)
		}
	}
	if n.Leader() != "b" || !n.IsLeader() {
		t.Fatalf("leader = %q after a died", n.Leader())
	}
}

func TestNodeDefaultsAndValidation(t *testing.T) {
	n, err := NewNode(Config{Self: Peer{Name: "solo"}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Replicas() != DefReplicas {
		t.Fatalf("default replicas = %d", n.Replicas())
	}
	if !n.OwnsLocally("anything") {
		t.Fatal("single node must own every key")
	}
	if got := n.Owners("k"); len(got) != 1 || got[0].Name != "solo" {
		t.Fatalf("single-node Owners = %v", got)
	}
	if n.Self().Name != "solo" {
		t.Fatalf("Self = %v", n.Self())
	}
	if _, err := NewNode(Config{Self: Peer{Name: "x"}, Replicas: -1}); err == nil {
		t.Error("negative replicas accepted")
	}
	if _, err := NewNode(Config{Self: Peer{Name: "bad/name"}}); err == nil {
		t.Error("invalid self name accepted")
	}
}
