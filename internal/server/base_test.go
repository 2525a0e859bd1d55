package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"megh/internal/sim"
)

// elidedWorld is sessionWorld with host 2 failed on some steps, so both
// spellings of an outage (HostState.Failed, failed_hosts) get exercised.
func elidedWorld(nVMs, nHosts, step int) StateRequest {
	req := sessionWorld(nVMs, nHosts, step)
	req.Hosts[nHosts-1].Failed = step%5 == 3
	return req
}

// elideSpec sizes the sessions driven through SessionClient: the client
// elides only snapshots of at least minElideEntries hosts plus VMs.
var elideSpec = SessionSpec{NumVMs: 24, NumHosts: 16, Seed: 5}

// elideWorld is elidedWorld at elideSpec's size.
func elideWorld(step int) StateRequest {
	return elidedWorld(elideSpec.NumVMs, elideSpec.NumHosts, step)
}

// sessionState captures what a refused request must leave untouched.
func sessionState(t *testing.T, base, id string) (SessionInfo, []byte) {
	t.Helper()
	var info SessionInfo
	doJSON(t, http.MethodGet, base+"/v2/sessions/"+id, nil, nil, &info)
	_, tail := getBody(t, base+"/v2/sessions/"+id+"/trace/tail?n=500")
	return info, tail
}

// TestElidedSnapshotsPreserveDecisions is the end-to-end differential for
// the elided form: the same request sequence (single decides, batches with
// feedback, bare feedback posts) sent elided to one service and in full to
// a same-seed twin must produce byte-identical response bodies, stats, and
// session trace streams.
func TestElidedSnapshotsPreserveDecisions(t *testing.T) {
	run := func(elide bool) (bodies [][]byte, stats, tail []byte) {
		svc, ts := newDecideService(t, 0)
		base := ts.URL + "/v2/sessions/" + DefaultSessionID
		var held string
		wire := func(req StateRequest) StateRequest {
			if !elide {
				return req
			}
			if held == "" {
				// The first snapshot travels in full and establishes the base.
				held = digestOf(&req)
				return req
			}
			return elideSnapshot(&req, held)
		}
		for step := 0; step < 18; step++ {
			var status int
			var body []byte
			switch {
			case step%6 == 5:
				req := BatchDecideRequest{Items: []BatchDecideItem{
					{State: wire(elidedWorld(4, 3, step))},
					{State: wire(elidedWorld(4, 3, step+1)),
						Feedback: &FeedbackRequest{Step: step, StepCost: 0.4, EnergyCost: 0.3, SLACost: 0.1}},
					{State: wire(elidedWorld(4, 3, step+2))},
				}}
				status, body = rawPost(t, base+"/decide/batch", req)
			case step%6 == 2:
				status, body = rawPost(t, base+"/feedback",
					FeedbackRequest{Step: step - 1, StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1})
			default:
				status, body = rawPost(t, base+"/decide", wire(elidedWorld(4, 3, step)))
			}
			if status != http.StatusOK && status != http.StatusNoContent {
				t.Fatalf("elide=%t step %d: status %d: %s", elide, step, status, body)
			}
			bodies = append(bodies, body)
		}
		// 18 steps: 3 batches, 3 feedbacks, 12 single decides; every decide
		// request but the very first is elided, and a batch counts once.
		wantElided := int64(0)
		if elide {
			wantElided = 11 + 3
		}
		if got := svc.elided.Value(); got != wantElided {
			t.Fatalf("elide=%t: %d elided requests counted, want %d", elide, got, wantElided)
		}
		if got := svc.baseConflicts.Value(); got != 0 {
			t.Fatalf("elide=%t: %d base conflicts", elide, got)
		}
		_, raw := getBody(t, base+"/stats")
		var st SessionStatsResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		stats, _ = json.Marshal(st)
		_, tail = getBody(t, base+"/trace/tail?n=500")
		return bodies, stats, tail
	}

	elBodies, elStats, elTail := run(true)
	fullBodies, fullStats, fullTail := run(false)
	for i := range elBodies {
		if !bytes.Equal(elBodies[i], fullBodies[i]) {
			t.Fatalf("request %d diverged:\nelided: %s\nfull:   %s", i, elBodies[i], fullBodies[i])
		}
	}
	if !bytes.Equal(elStats, fullStats) {
		t.Fatalf("stats diverged:\nelided: %s\nfull:   %s", elStats, fullStats)
	}
	if !bytes.Equal(elTail, fullTail) {
		t.Fatal("session trace streams differ between elided and full requests")
	}
}

// TestStaticDigestSeesEveryStaticField: one flipped bit of any host's or
// VM's MIPS, RAM or bandwidth, a renamed or moved power model and either
// count each change the digest; a failed host, a VM's placement and its
// utilization do not. The failed hosts it counts are the failed hosts.
func TestStaticDigestSeesEveryStaticField(t *testing.T) {
	world := func() StateRequest {
		w := testWorld(5, 4, true)
		w.Hosts[1].PowerModel = "g5"
		w.Hosts[3].PowerModel = ""
		w.Hosts[2].Failed = true
		return w
	}
	w := world()
	digest, failed := staticDigest(w.Hosts, w.VMs)
	if failed != 1 {
		t.Fatalf("counted %d failed hosts, want 1", failed)
	}
	check := func(what string, moves bool, edit func(*StateRequest)) {
		t.Helper()
		w := world()
		edit(&w)
		if d, _ := staticDigest(w.Hosts, w.VMs); (d != digest) != moves {
			t.Errorf("%s: digest %s, unchanged %s", what, d, digest)
		}
	}
	flip := func(f *float64, bit int) { *f = math.Float64frombits(math.Float64bits(*f) ^ 1<<bit) }
	for bit := 0; bit < 64; bit++ {
		for i := range w.Hosts {
			check(fmt.Sprintf("host %d MIPS bit %d", i, bit), true, func(w *StateRequest) { flip(&w.Hosts[i].MIPS, bit) })
			check(fmt.Sprintf("host %d RAM bit %d", i, bit), true, func(w *StateRequest) { flip(&w.Hosts[i].RAMMB, bit) })
			check(fmt.Sprintf("host %d bandwidth bit %d", i, bit), true, func(w *StateRequest) { flip(&w.Hosts[i].BandwidthMbps, bit) })
		}
		for j := range w.VMs {
			check(fmt.Sprintf("VM %d MIPS bit %d", j, bit), true, func(w *StateRequest) { flip(&w.VMs[j].MIPS, bit) })
			check(fmt.Sprintf("VM %d RAM bit %d", j, bit), true, func(w *StateRequest) { flip(&w.VMs[j].RAMMB, bit) })
			check(fmt.Sprintf("VM %d bandwidth bit %d", j, bit), true, func(w *StateRequest) { flip(&w.VMs[j].BandwidthMbps, bit) })
		}
	}
	check("g5 renamed g4", true, func(w *StateRequest) { w.Hosts[1].PowerModel = "g4" })
	check("g5 moved from host 1 to host 3", true, func(w *StateRequest) { w.Hosts[1].PowerModel, w.Hosts[3].PowerModel = "", "g5" })
	check("host 0's name dropped", true, func(w *StateRequest) { w.Hosts[0].PowerModel = "" })
	check("a host more", true, func(w *StateRequest) { w.Hosts = append(w.Hosts, w.Hosts[0]) })
	check("a VM fewer", true, func(w *StateRequest) { w.VMs = w.VMs[:4] })
	check("host 0 failed", false, func(w *StateRequest) { w.Hosts[0].Failed = true })
	check("host 2 recovered", false, func(w *StateRequest) { w.Hosts[2].Failed = false })
	check("VM 0 moved", false, func(w *StateRequest) { w.VMs[0].Host = 3 })
	check("VM 4 at another utilization", false, func(w *StateRequest) { w.VMs[4].Utilization = 0.9 })

	for mask := 0; mask < 1<<len(w.Hosts); mask++ {
		want := 0
		for i := range w.Hosts {
			w.Hosts[i].Failed = mask&(1<<i) != 0
			if w.Hosts[i].Failed {
				want++
			}
		}
		if d, got := staticDigest(w.Hosts, w.VMs); got != want || d != digest {
			t.Errorf("failed-host mask %04b: counted %d (want %d), digest %s (want %s)", mask, got, want, d, digest)
		}
	}
}

// TestBaseConflictTouchesNothing: an elided request naming a base the
// session does not hold — none yet, an unknown digest, a digest a later
// full snapshot replaced — answers 409 in the JSON envelope and leaves
// decisions, last_step, the base and the trace exactly as they were; so
// does a batch with a single bad item, whatever its other items carry.
func TestBaseConflictTouchesNothing(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	const id = "t"
	putSession(t, ts.URL, id, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 5})
	url := ts.URL + "/v2/sessions/" + id

	conflicts := int64(0)
	refuse := func(what, path string, body any) {
		t.Helper()
		before, tailBefore := sessionState(t, ts.URL, id)
		status, raw := rawPost(t, url+path, body)
		var env errorResponse
		if status != http.StatusConflict || json.Unmarshal(raw, &env) != nil || env.Error == "" {
			t.Fatalf("%s: status %d body %s, want 409 in the error envelope", what, status, raw)
		}
		after, tailAfter := sessionState(t, ts.URL, id)
		if after != before {
			t.Fatalf("%s changed the session:\nbefore %+v\nafter  %+v", what, before, after)
		}
		if !bytes.Equal(tailBefore, tailAfter) {
			t.Fatalf("%s emitted trace events", what)
		}
		conflicts++
		if got := svc.baseConflicts.Value(); got != conflicts {
			t.Fatalf("%s: conflict counter %d, want %d", what, got, conflicts)
		}
	}

	first := sessionWorld(4, 3, 0)
	x := digestOf(&first)
	refuse("elided before any base", "/decide", elideSnapshot(&first, x))

	if status, raw := rawPost(t, url+"/decide", first); status != http.StatusOK {
		t.Fatalf("full decide: %d %s", status, raw)
	}
	if info, _ := sessionState(t, ts.URL, id); info.SnapshotBase != x || info.Decisions != 1 {
		t.Fatalf("full snapshot did not establish base %q: %+v", x, info)
	}
	unknown := elideSnapshot(&first, x)
	unknown.Base = "feedface"
	refuse("unknown digest", "/decide", unknown)

	// Another full snapshot with other capacities replaces the base: x is
	// now stale.
	second := sessionWorld(4, 3, 1)
	second.Hosts[0].MIPS = 5000
	y := digestOf(&second)
	if status, raw := rawPost(t, url+"/decide", second); status != http.StatusOK {
		t.Fatalf("second full decide: %d %s", status, raw)
	}
	if info, _ := sessionState(t, ts.URL, id); info.SnapshotBase != y {
		t.Fatalf("base is %q after a full snapshot digesting to %q", info.SnapshotBase, y)
	}
	third := sessionWorld(4, 3, 2)
	refuse("stale digest", "/decide", elideSnapshot(&third, x))

	third.Hosts[0].MIPS = 5000
	refuse("batch with one stale item", "/decide/batch", BatchDecideRequest{Items: []BatchDecideItem{
		{State: elideSnapshot(&third, y), Feedback: &FeedbackRequest{Step: 1, StepCost: 0.4}},
		{State: elideSnapshot(&third, x)},
	}})
	// A full item ahead of the bad one would replace the base — but only
	// if the batch stood.
	other := sessionWorld(4, 3, 3)
	other.Hosts[1].RAMMB = 16384
	refuse("batch whose full item precedes a stale one", "/decide/batch", BatchDecideRequest{Items: []BatchDecideItem{
		{State: other},
		{State: elideSnapshot(&third, y)},
	}})

	// The base in force still serves.
	if status, raw := rawPost(t, url+"/decide", elideSnapshot(&third, y)); status != http.StatusOK {
		t.Fatalf("elided decide after the refusals: %d %s", status, raw)
	}
}

// TestThrottledRequestLeavesBase: a request the admission gate refuses with
// 429 was decoded and resolved first, but must not publish what it resolved
// to — it would evict the base another client is eliding against — nor count
// as an elided request served.
func TestThrottledRequestLeavesBase(t *testing.T) {
	svc, ts := newDecideService(t, 1)
	url := ts.URL + "/v2/sessions/" + DefaultSessionID

	first := sessionWorld(4, 3, 0)
	x := digestOf(&first)
	if status, raw := rawPost(t, url+"/decide", first); status != http.StatusOK {
		t.Fatalf("full decide: %d %s", status, raw)
	}
	other := sessionWorld(4, 3, 1)
	other.Hosts[0].MIPS = 5000

	release := svc.gate.tryAcquire(1) // the gate's only slot, as if a decide were in flight
	if release == nil {
		t.Fatal("idle gate refused admission")
	}
	for what, post := range map[string]func() (int, []byte){
		"full snapshot with other statics": func() (int, []byte) { return rawPost(t, url+"/decide", other) },
		"elided snapshot":                  func() (int, []byte) { return rawPost(t, url+"/decide", elideSnapshot(&first, x)) },
		"batch replacing the base": func() (int, []byte) {
			return rawPost(t, url+"/decide/batch", BatchDecideRequest{Items: []BatchDecideItem{
				{State: other},
				{State: elideSnapshot(&other, digestOf(&other))},
			}})
		},
	} {
		if status, raw := post(); status != http.StatusTooManyRequests {
			t.Fatalf("%s against a full gate: %d %s, want 429", what, status, raw)
		}
		if info, _ := sessionState(t, ts.URL, DefaultSessionID); info.SnapshotBase != x || info.Decisions != 1 {
			t.Fatalf("%s, throttled, changed the session: %+v (base was %q)", what, info, x)
		}
		if e := svc.elided.Value(); e != 0 {
			t.Fatalf("%s, throttled, counted as %d elided requests", what, e)
		}
	}
	release()
	next := sessionWorld(4, 3, 2)
	if status, raw := rawPost(t, url+"/decide", elideSnapshot(&next, x)); status != http.StatusOK {
		t.Fatalf("elided decide against the kept base: %d %s", status, raw)
	}
}

// TestElidedSnapshotRejections pins the 400s of the elided form: the
// request named the right base but is malformed against it.
func TestElidedSnapshotRejections(t *testing.T) {
	_, ts := newSessionService(t, 0)
	url := ts.URL + "/v2/sessions/" + DefaultSessionID + "/decide"
	world := sessionWorld(4, 3, 0)
	digest := digestOf(&world)
	if status, raw := rawPost(t, url, world); status != http.StatusOK {
		t.Fatalf("full decide: %d %s", status, raw)
	}
	for name, mutate := range map[string]func(*StateRequest){
		"hosts beside base":           func(r *StateRequest) { r.Hosts = world.Hosts },
		"VM resources beside base":    func(r *StateRequest) { r.VMs[1].MIPS = 2500 },
		"too few VMs":                 func(r *StateRequest) { r.VMs = r.VMs[:3] },
		"failed host out of range":    func(r *StateRequest) { r.FailedHosts = []int{3} },
		"failed host negative":        func(r *StateRequest) { r.FailedHosts = []int{-1} },
		"failed host twice":           func(r *StateRequest) { r.FailedHosts = []int{1, 1} },
		"failed hosts out of order":   func(r *StateRequest) { r.FailedHosts = []int{2, 0} },
		"VM on unknown host":          func(r *StateRequest) { r.VMs[0].Host = 3 },
		"utilization out of range":    func(r *StateRequest) { r.VMs[0].Utilization = 1.5 },
		"negative step":               func(r *StateRequest) { r.Step = -1 },
		"failed_hosts without base":   func(r *StateRequest) { *r = sessionWorld(4, 3, 1); r.FailedHosts = []int{0} },
		"full form of the wrong size": func(r *StateRequest) { *r = sessionWorld(5, 3, 1) },
	} {
		req := elideSnapshot(&world, digest)
		mutate(&req)
		if status, raw := rawPost(t, url, req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, status, raw)
		}
	}
}

// TestBaseSurvivesEvictionButNotRestart: the base rides on the session
// descriptor, so an LRU-evicted session still accepts elided snapshots when
// it is lazily restored; a restarted process has lost it, answers 409, and
// the client's single full resend carries on — with retries off.
func TestBaseSurvivesEvictionButNotRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Service {
		svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, CheckpointDir: dir, MaxSessions: 1})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	// One listener address outlives the restart: the handler is swapped.
	var front handlerHolder
	ts := httptest.NewServer(&front)
	t.Cleanup(ts.Close)
	svc := mk()
	front.set(svc.Handler())

	ctx := context.Background()
	spec := elideSpec
	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(1, 0)
	a, b := c.Session("a"), c.Session("b")
	if _, err := a.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if _, err := a.Decide(ctx, elideWorld(step)); err != nil {
			t.Fatal(err)
		}
	}
	// Touching b evicts a under the cap of one resident learner.
	if _, err := b.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Decide(ctx, elideWorld(0)); err != nil {
		t.Fatal(err)
	}
	if info, err := a.Info(ctx); err != nil || info.Live || info.SnapshotBase == "" {
		t.Fatalf("a should be evicted with its base kept: %+v, %v", info, err)
	}
	if _, err := a.Decide(ctx, elideWorld(3)); err != nil {
		t.Fatalf("elided decide on an evicted session: %v", err)
	}
	if info, err := a.Info(ctx); err != nil || info.Restores != 1 || info.Decisions != 4 {
		t.Fatalf("a after lazy restore: %+v, %v", info, err)
	}
	// 3 of a's 4 decides were elided (b's one was full); none conflicted.
	if e, k := svc.elided.Value(), svc.baseConflicts.Value(); e != 3 || k != 0 {
		t.Fatalf("before restart: %d elided, %d conflicts, want 3 and 0", e, k)
	}
	if _, err := a.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart: a new process over the same checkpoint directory.
	svc = mk()
	front.set(svc.Handler())
	if info, err := a.Create(ctx, spec); err != nil || info.Restores != 1 || info.SnapshotBase != "" {
		t.Fatalf("re-PUT after restart: %+v, %v", info, err)
	}
	for step := 4; step < 6; step++ {
		if _, err := a.Decide(ctx, elideWorld(step)); err != nil {
			t.Fatalf("decide step %d after restart: %v", step, err)
		}
	}
	// Step 4: elided → 409 → full. Step 5: elided against the new base.
	if e, k := svc.elided.Value(), svc.baseConflicts.Value(); e != 1 || k != 1 {
		t.Fatalf("after restart: %d elided, %d conflicts, want 1 and 1", e, k)
	}
	if info, err := a.Info(ctx); err != nil || info.Decisions != 2 || info.LastStep != 5 {
		t.Fatalf("a after restart: %+v, %v", info, err)
	}
}

// lengthSpy records the Content-Length of every session request a node
// sends to a peer.
type lengthSpy struct {
	mu      sync.Mutex
	lengths []int64
}

func (s *lengthSpy) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.Contains(r.URL.Path, "/v2/sessions/") {
		s.mu.Lock()
		s.lengths = append(s.lengths, r.ContentLength)
		s.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterElidedSnapshots: an elided request entering at a non-owner is
// forwarded verbatim — with its Content-Length — and served by the owner,
// who holds the base; when the owner dies and a replica is promoted, the
// new owner answers 409 and the client's full resend re-establishes the
// base there, through the same SessionClient.
func TestClusterElidedSnapshots(t *testing.T) {
	spies := map[string]*lengthSpy{}
	tc := newTestClusterTuned(t, 2, func(cc *ClusterConfig) {
		spy := &lengthSpy{}
		spies[cc.NodeName] = spy
		cc.HTTPClient = &http.Client{Transport: spy}
	}, "a", "b", "c")
	id := tc.idOwnedBy(t, "a", "a")
	successor := tc.svcs["a"].ClusterNode().Owners(id)[1].Name
	entry := "b"
	if successor == "b" {
		entry = "c"
	}

	ctx := context.Background()
	c := NewClient(tc.urls[entry], nil)
	c.SetRetryPolicy(1, 0)
	sc := c.Session(id)
	if _, err := sc.Create(ctx, elideSpec); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		if _, err := sc.Decide(ctx, elideWorld(step)); err != nil {
			t.Fatalf("proxied decide step %d: %v", step, err)
		}
	}
	if e := tc.svcs["a"].elided.Value(); e != 3 {
		t.Fatalf("owner served %d elided requests, want 3", e)
	}
	if e, p := tc.svcs[entry].elided.Value(), tc.svcs[entry].cluster.cProxied.Value(); e != 0 || p != 5 {
		t.Fatalf("entry node: %d elided served locally, %d proxied; want 0 and 5", e, p)
	}
	spy := spies[entry]
	spy.mu.Lock()
	lengths := append([]int64(nil), spy.lengths...)
	spy.mu.Unlock()
	if len(lengths) != 5 {
		t.Fatalf("entry node forwarded %d session requests, want 5", len(lengths))
	}
	for i, n := range lengths {
		if n <= 0 {
			t.Fatalf("forwarded request %d went out with Content-Length %d (chunked)", i, n)
		}
	}
	// The elided bodies are the small ones.
	if lengths[2] >= lengths[1] {
		t.Fatalf("elided body (%d bytes) not smaller than the full one (%d bytes)", lengths[2], lengths[1])
	}
	if _, err := sc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	// The owner dies; its successor holds the replica and now the ring
	// position. Re-asserting the session promotes the replica there.
	tc.servers["a"].Close()
	tc.markDead("a")
	if info, err := sc.Create(ctx, elideSpec); err != nil || info.Restores != 1 {
		t.Fatalf("failover create: %+v, %v", info, err)
	}
	for step := 4; step < 6; step++ {
		if _, err := sc.Decide(ctx, elideWorld(step)); err != nil {
			t.Fatalf("decide step %d after failover: %v", step, err)
		}
	}
	if e, k := tc.svcs[successor].elided.Value(), tc.svcs[successor].baseConflicts.Value(); e != 1 || k != 1 {
		t.Fatalf("new owner %s: %d elided, %d conflicts, want 1 and 1", successor, e, k)
	}
}

// TestSessionClientElidesTransparently drives one service through
// SessionClient and a same-seed twin with hand-posted full snapshots: same
// decisions, and the service saw exactly the forms the contract promises —
// full first, elided after, full again when the static fields change,
// batches whose first item establishes the base for the rest, and always
// full for a world under minElideEntries.
func TestSessionClientElidesTransparently(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	_, twin := newSessionService(t, 0)
	ctx := context.Background()
	const id = "big"
	putSession(t, ts.URL, id, elideSpec)
	putSession(t, twin.URL, id, elideSpec)
	sc := NewClient(ts.URL, nil).Session(id)
	twinURL := twin.URL + "/v2/sessions/" + id

	world := func(step int) StateRequest {
		req := elideWorld(step)
		if step >= 4 {
			req.VMs[2].RAMMB = 2048 // the world's static half changes at step 4
		}
		return req
	}
	for step := 0; step < 8; step++ {
		req := world(step)
		before, _ := json.Marshal(req)
		got, err := sc.Decide(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := json.Marshal(req); !bytes.Equal(before, after) {
			t.Fatalf("step %d: Decide modified the caller's request", step)
		}
		var want DecideResponse
		doJSON(t, http.MethodPost, twinURL+"/decide", req, nil, &want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: elided %+v, full %+v", step, got, want)
		}
	}
	// Steps 0 and 4 travelled in full.
	if e, k := svc.elided.Value(), svc.baseConflicts.Value(); e != 6 || k != 0 {
		t.Fatalf("%d elided, %d conflicts, want 6 and 0", e, k)
	}

	// A fresh view has no base: its first batch leads with a full item and
	// elides the rest against it, in one request; its second elides whole.
	fresh := NewClient(ts.URL, nil).Session(id)
	for from, elided := range []int64{7, 8} {
		batch := BatchDecideRequest{}
		for step := 8 + 4*from; step < 12+4*from; step++ {
			batch.Items = append(batch.Items, BatchDecideItem{
				State: world(step), Feedback: &FeedbackRequest{Step: step - 1, StepCost: 0.4},
			})
		}
		got, err := fresh.DecideBatchCtx(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		var want BatchDecideResponse
		doJSON(t, http.MethodPost, twinURL+"/decide/batch", batch, nil, &want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("batch %d: elided %+v, full %+v", from, got, want)
		}
		if e := svc.elided.Value(); e != elided {
			t.Fatalf("%d elided after batch %d, want %d", e, from, elided)
		}
	}
	if b := fresh.base.Load(); b == nil || *b != *sc.base.Load() {
		t.Fatalf("fresh view did not adopt the batch's base")
	}

	// The default session is 4×3, under minElideEntries: every request stays
	// self-contained, single or batched.
	small := NewClient(ts.URL, nil).Session(DefaultSessionID)
	for step := 0; step < 3; step++ {
		if _, err := small.Decide(ctx, sessionWorld(4, 3, step)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := small.DecideBatchCtx(ctx, BatchDecideRequest{Items: []BatchDecideItem{
		{State: sessionWorld(4, 3, 3)}, {State: sessionWorld(4, 3, 4)},
	}}); err != nil {
		t.Fatal(err)
	}
	if e := svc.elided.Value(); e != 8 {
		t.Fatalf("%d elided after the 4×3 requests, want 8 still", e)
	}
}

// TestSessionClientConcurrentDecides hammers one SessionClient from many
// goroutines, two of which keep replacing the base with other static
// fields. Every call must succeed and decide exactly once — a 409 costs a
// round trip, never a decision.
func TestSessionClientConcurrentDecides(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(1, 0)
	sc := c.Session("big")
	ctx := context.Background()
	if _, err := sc.Create(ctx, elideSpec); err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := elideWorld(w*rounds + i)
				if w < 2 {
					req.Hosts[w].MIPS = 4000 + float64(100*(i%3))
				}
				if i%4 == 3 {
					out, err := sc.DecideBatchCtx(ctx, BatchDecideRequest{Items: []BatchDecideItem{{State: req}}})
					if err != nil || len(out.Results) != 1 {
						t.Errorf("worker %d round %d: batch %+v, %v", w, i, out, err)
					}
					continue
				}
				if out, err := sc.Decide(ctx, req); err != nil || out.Step != req.Step {
					t.Errorf("worker %d round %d: decide %+v, %v", w, i, out, err)
				}
			}
		}(w)
	}
	wg.Wait()
	info, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Decisions != workers*rounds {
		t.Fatalf("%d calls decided %d times", workers*rounds, info.Decisions)
	}
	if svc.elided.Value() == 0 {
		t.Fatal("no request was elided")
	}
}

// TestRequestBodyLimits: decide, decide/batch, feedback and session PUT
// read at most a bound derived from the session's size, and answer 413 in
// the JSON envelope beyond it.
func TestRequestBodyLimits(t *testing.T) {
	_, ts := newSessionService(t, 0)
	// The batch bound scales with the session only up to a fixed ceiling.
	if got := (SessionSpec{NumVMs: 1000, NumHosts: 10000}).maxBatchBytes(); got != maxBatchBodyBytes {
		t.Fatalf("10000×1000 batch bound is %d bytes, want the %d ceiling", got, maxBatchBodyBytes)
	}
	spec := SessionSpec{NumVMs: 4, NumHosts: 3}
	world, _ := json.Marshal(sessionWorld(4, 3, 0))
	// JSON allows whitespace between tokens: pad a valid body past the limit.
	pad := func(body []byte, limit int64) []byte {
		return append(append([]byte{'{'}, bytes.Repeat([]byte{' '}, int(limit))...), body[1:]...)
	}
	batch := append(append([]byte(`{"items":[{"state":`), world...), `}]}`...)
	session := ts.URL + "/v2/sessions/" + DefaultSessionID
	for _, tc := range []struct {
		method, url string
		body        []byte
		limit       int64
		ok          int
	}{
		{http.MethodPost, session + "/decide", world, spec.maxSnapshotBytes(), http.StatusOK},
		{http.MethodPost, ts.URL + "/v2/sessions/default/decide", world, spec.maxSnapshotBytes(), http.StatusOK},
		{http.MethodPost, session + "/decide/batch", batch, spec.maxBatchBytes(), http.StatusOK},
		{http.MethodPost, session + "/feedback", []byte(`{"step":0,"step_cost":0.5}`), maxSmallBodyBytes, http.StatusNoContent},
		{http.MethodPut, ts.URL + "/v2/sessions/fresh", []byte(`{"num_vms":4,"num_hosts":3}`), maxSmallBodyBytes, http.StatusCreated},
	} {
		for _, over := range []bool{true, false} {
			body, want := tc.body, tc.ok
			if over {
				body, want = pad(tc.body, tc.limit), http.StatusRequestEntityTooLarge
			}
			req, err := http.NewRequest(tc.method, tc.url, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("%s %s (%d bytes): status %d, want %d: %s",
					tc.method, tc.url, len(body), resp.StatusCode, want, raw)
			}
			if over {
				var env errorResponse
				if json.Unmarshal(raw, &env) != nil || env.Error == "" {
					t.Fatalf("%s %s: 413 body %q is not the error envelope", tc.method, tc.url, raw)
				}
			}
		}
	}
}

// snapshot is the conversion the service ran per request before it retained
// one snapshot per session: everything built fresh, O(N + M). Kept verbatim
// (minus the all-nil history tables, which went with snapshotBase's, and with
// HostFailed nil when no host failed, as sim.Snapshot allows) as the oracle
// retainedSnapshot.fill is compared with.
func (r *StateRequest) snapshot(b *snapshotBase, overload, stepSeconds float64) *sim.Snapshot {
	nH, nV := len(b.hostSpecs), len(b.vmSpecs)
	s := &sim.Snapshot{
		Step:              r.Step,
		StepSeconds:       stepSeconds,
		OverloadThreshold: overload,
		VMHost:            make([]int, nV),
		VMUtil:            make([]float64, nV),
		VMMIPS:            make([]float64, nV),
		VMSpecs:           b.vmSpecs,
		HostUtil:          make([]float64, nH),
		HostVMs:           make([][]int, nH),
		HostSpecs:         b.hostSpecs,
		HostFailed:        make([]bool, nH),
	}
	for i := range r.Hosts {
		s.HostFailed[i] = r.Hosts[i].Failed
	}
	for _, i := range r.FailedHosts {
		s.HostFailed[i] = true
	}
	if !slices.Contains(s.HostFailed, true) {
		s.HostFailed = nil
	}
	for j := range r.VMs {
		v := &r.VMs[j]
		s.VMHost[j] = v.Host
		s.VMUtil[j] = v.Utilization
		s.VMMIPS[j] = v.Utilization * b.vmSpecs[j].MIPS
		s.HostVMs[v.Host] = append(s.HostVMs[v.Host], j)
	}
	for i, vms := range s.HostVMs {
		var mips float64
		for _, j := range vms {
			mips += s.VMMIPS[j]
		}
		s.HostUtil[i] = mips / b.hostSpecs[i].MIPS
	}
	return s
}
