package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"megh/internal/sim"
)

// sameSnapshot fails unless got, a retained snapshot just filled, is field
// for field what the fresh build want is: floats equal on their bits, spec
// slices the same backing arrays, HostFailed nil exactly when no host failed,
// and an empty host list equal to a nil one (the one thing a reader of HostVMs
// cannot tell apart).
func sameSnapshot(t *testing.T, what string, got, want *sim.Snapshot) {
	t.Helper()
	bits := func(name string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d entries, fresh build %d", what, name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v (%x), fresh build %v (%x)", what, name, i,
					g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
	if got.Step != want.Step || got.StepSeconds != want.StepSeconds || got.OverloadThreshold != want.OverloadThreshold {
		t.Fatalf("%s: step/τ/β %d/%g/%g, fresh build %d/%g/%g", what,
			got.Step, got.StepSeconds, got.OverloadThreshold, want.Step, want.StepSeconds, want.OverloadThreshold)
	}
	if !reflect.DeepEqual(got.VMHost, want.VMHost) {
		t.Fatalf("%s: VMHost %v, fresh build %v", what, got.VMHost, want.VMHost)
	}
	bits("VMUtil", got.VMUtil, want.VMUtil)
	bits("VMMIPS", got.VMMIPS, want.VMMIPS)
	bits("HostUtil", got.HostUtil, want.HostUtil)
	if !reflect.DeepEqual(got.HostFailed, want.HostFailed) { // nil only equals nil
		t.Fatalf("%s: HostFailed %v, fresh build %v", what, got.HostFailed, want.HostFailed)
	}
	if len(got.HostVMs) != len(want.HostVMs) {
		t.Fatalf("%s: %d host lists, fresh build %d", what, len(got.HostVMs), len(want.HostVMs))
	}
	for i := range got.HostVMs {
		if len(got.HostVMs[i])+len(want.HostVMs[i]) > 0 && !reflect.DeepEqual(got.HostVMs[i], want.HostVMs[i]) {
			t.Fatalf("%s: HostVMs[%d] = %v, fresh build %v", what, i, got.HostVMs[i], want.HostVMs[i])
		}
	}
	if len(got.HostSpecs) != len(want.HostSpecs) || &got.HostSpecs[0] != &want.HostSpecs[0] ||
		len(got.VMSpecs) != len(want.VMSpecs) || &got.VMSpecs[0] != &want.VMSpecs[0] {
		t.Fatalf("%s: spec slices are not the base's", what)
	}
	if got.HostHistory != nil || got.VMHistory != nil || got.VMAlive != nil {
		t.Fatalf("%s: history or liveness tables set on a service snapshot", what)
	}
}

// retainedDriver feeds requests through resolveBase into one retained
// snapshot, as a session does, and checks every fill against the oracle.
type retainedDriver struct {
	spec  SessionSpec
	held  *snapshotBase
	rs    retainedSnapshot
	fills int
}

// step offers req; a request resolveBase refuses is skipped, as the service
// answers it without touching the snapshot.
func (d *retainedDriver) step(t *testing.T, req *StateRequest) {
	t.Helper()
	base, err := resolveBase(d.held, req, "retained", d.spec)
	if err != nil {
		return
	}
	d.held = base
	d.fills++
	got := d.rs.fill(req, base, 0.7, 300)
	sameSnapshot(t, fmt.Sprintf("fill %d (step %d)", d.fills, req.Step), got, req.snapshot(base, 0.7, 300))
}

// TestRetainedSnapshotMatchesFreshBuild drives one retained snapshot through
// the request shapes that make a fill differ from its predecessor — hosts
// emptying and refilling, every VM on one host, failures appearing and
// clearing in both spellings, a full form replacing the base mid-sequence,
// full and elided forms interleaved — and then through a seeded random
// sequence of the same moves; after each fill every field equals the fresh
// build's.
func TestRetainedSnapshotMatchesFreshBuild(t *testing.T) {
	const nVMs, nHosts = 40, 64
	world := testWorld(nVMs, nHosts, true)
	other := testWorld(nVMs, nHosts, true) // same shape, different static half
	for j := range other.VMs {
		other.VMs[j].MIPS = 1000 + float64(j)
	}
	other.Hosts[3].MIPS = 8000

	d := &retainedDriver{spec: SessionSpec{NumVMs: nVMs, NumHosts: nHosts}}
	step := 0
	// send builds the next request on static world w with placement and
	// utilizations from place, the listed hosts failed, elided or in full.
	send := func(w *StateRequest, elided bool, place func(j int) (int, float64), failed ...int) {
		req := StateRequest{Step: step, Hosts: append([]HostState(nil), w.Hosts...), VMs: append([]VMState(nil), w.VMs...)}
		step++
		for j := range req.VMs {
			req.VMs[j].Host, req.VMs[j].Utilization = place(j)
		}
		for _, i := range failed {
			req.Hosts[i].Failed = true
		}
		if elided {
			req = elideSnapshot(&req, digestOf(w))
		}
		before := d.fills
		d.step(t, &req)
		if d.fills == before {
			t.Fatalf("step %d: request refused", req.Step)
		}
	}
	spread := func(j int) (int, float64) { return j % nHosts, 0.1 + 0.02*float64(j%30) }
	upper := func(j int) (int, float64) { return nHosts/2 + j%(nHosts/2), 0.9 }
	oneHost := func(j int) (int, float64) { return 17, 1.0 / float64(j+1) }

	send(&world, false, spread)
	send(&world, true, spread)
	send(&world, true, oneHost)                                    // every other host empties
	send(&world, true, upper)                                      // the lower half stays empty, 17 empties
	send(&world, true, spread, 0, 17, 63)                          // failed_hosts: occupied and empty hosts
	send(&world, true, upper, 5)                                   // 0, 17, 63 clear; 5 fails empty
	send(&world, true, spread)                                     // all clear
	send(&world, false, oneHost, 17, 18)                           // hosts[].failed in the full form
	send(&world, false, spread)                                    // cleared again, still full
	send(&other, false, upper, 40)                                 // a full form replaces the base
	send(&other, true, spread, 40)                                 // elided against the new base
	send(&world, false, spread)                                    // and back
	send(&world, true, func(j int) (int, float64) { return 0, 0 }) // zero demand

	r := rand.New(rand.NewSource(24))
	for i := 0; i < 300; i++ {
		w := &world
		if d.held.digest != digestOf(&world) {
			w = &other
		}
		full := r.Intn(8) == 0
		if full && r.Intn(2) == 0 { // switch bases on some full forms
			if w == &world {
				w = &other
			} else {
				w = &world
			}
		}
		used := 1 + r.Intn(nHosts) // how many hosts this step's placement may use
		var failed []int
		for k := r.Intn(4); k > 0; k-- {
			failed = append(failed, r.Intn(nHosts))
		}
		send(w, !full, func(int) (int, float64) { return r.Intn(used), r.Float64() }, failed...)
	}
}

// FuzzRetainedSnapshot lets the fuzzer write the request sequence: on a 5×7
// world, each 16-byte record is one request — form, which of two static
// halves, a failure mask, then a host and a utilization per VM — offered to
// resolveBase and, if accepted, filled into the one retained snapshot and
// compared with a fresh build.
func FuzzRetainedSnapshot(f *testing.F) {
	const nVMs, nHosts = 7, 5
	const record = 2 + 2*nVMs
	worlds := [2]StateRequest{testWorld(nVMs, nHosts, false), testWorld(nVMs, nHosts, false)}
	worlds[1].Hosts[1].MIPS = 9000
	f.Add([]byte("\x00\x00" + "\x00\x01\x02\x03\x04\x00\x01" + "\x10\x20\x30\x40\x50\x60\x70" +
		"\x01\x05" + "\x00\x00\x00\x00\x00\x00\x00" + "\xff\xff\xff\xff\xff\xff\xff" +
		"\x01\x00" + "\x04\x04\x03\x03\x04\x04\x03" + "\x00\x80\x00\x80\x00\x80\x00" +
		"\x02\x1f" + "\x00\x01\x02\x03\x04\x00\x01" + "\x10\x20\x30\x40\x50\x60\x70" +
		"\x03\x00" + "\x02\x02\x02\x02\x02\x02\x02" + "\x01\x01\x01\x01\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &retainedDriver{spec: SessionSpec{NumVMs: nVMs, NumHosts: nHosts}}
		for step := 0; len(data) >= record && step < 64; step, data = step+1, data[record:] {
			w := &worlds[data[0]>>1&1]
			req := StateRequest{Step: step, Hosts: append([]HostState(nil), w.Hosts...), VMs: append([]VMState(nil), w.VMs...)}
			for i := range req.Hosts {
				req.Hosts[i].Failed = data[1]>>i&1 == 1
			}
			for j := range req.VMs {
				req.VMs[j].Host = int(data[2+j]) % nHosts
				req.VMs[j].Utilization = float64(data[2+nVMs+j]) / 255
			}
			if data[0]&1 == 1 {
				// Elided against this world's digest, held or not: a request
				// naming the other base is a 409 and must leave no trace.
				req = elideSnapshot(&req, digestOf(w))
			}
			d.step(t, &req)
		}
	})
}

// churnWorld is step's request on an nHosts × nVMs world whose placement
// moves wholesale: VMs crowd onto a window of hosts that slides and resizes
// with the step, and one host of the window is failed on every fourth.
func churnWorld(nVMs, nHosts, step int) StateRequest {
	req := testWorld(nVMs, nHosts, false)
	req.Step = step
	width := 1 + (step*7)%23
	for j := range req.VMs {
		req.VMs[j].Host = (step*131 + j%width) % nHosts
		req.VMs[j].Utilization = 0.05 + 0.9*float64((step+3*j)%17)/17
	}
	if step%4 == 3 {
		req.Hosts[(step*131)%nHosts].Failed = true
	}
	return req
}

// TestRetainedSnapshotDiesWithTheLearner: an evicted session's descriptor
// keeps its base and nothing else sized by the world — no snapshot, no
// request scratch — and the decide that restores it rebuilds both and decides
// what a never-evicted twin does. The session is evicted every third step,
// so most fills land in a snapshot that was just built; responses and decide
// trace events must be byte-identical all the same.
func TestRetainedSnapshotDiesWithTheLearner(t *testing.T) {
	const nVMs, nHosts, steps, evictEvery = 40, 2000, 13, 3
	spec := SessionSpec{NumVMs: nVMs, NumHosts: nHosts, Seed: 24}
	ctx := context.Background()

	run := func(evict bool) (decides []DecideResponse, events []json.RawMessage, info SessionInfo) {
		maxSessions := 0
		if evict {
			maxSessions = 1
		}
		svc, ts := newSessionService(t, maxSessions)
		c := NewClient(ts.URL, nil)
		sc, other := c.Session("a"), c.Session("b")
		if _, err := sc.Create(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3}); err != nil {
			t.Fatal(err)
		}
		sess, err := svc.mgr.get("a")
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps; step++ {
			if evict && step > 0 && step%evictEvery == 0 {
				// Touching "b" under a cap of one resident learner evicts "a".
				if _, err := other.Decide(ctx, sessionWorld(4, 3, step)); err != nil {
					t.Fatal(err)
				}
				sess.mu.Lock()
				live, snap := sess.learner != nil, sess.snap
				sess.mu.Unlock()
				if live || snap != nil || sess.scratch.Load() != nil {
					t.Fatalf("step %d: evicted session keeps learner %t, snapshot %t, scratch %t",
						step, live, snap != nil, sess.scratch.Load() != nil)
				}
				if sess.base.Load() == nil {
					t.Fatalf("step %d: eviction dropped the snapshot base", step)
				}
			}
			resp, err := sc.Decide(ctx, churnWorld(nVMs, nHosts, step))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			decides = append(decides, resp)
			if err := sc.Feedback(ctx, FeedbackRequest{Step: step, StepCost: 0.4}); err != nil {
				t.Fatal(err)
			}
		}
		sess.mu.Lock()
		snap := sess.snap
		sess.mu.Unlock()
		if snap == nil || len(snap.snap.HostVMs) != nHosts || sess.scratch.Load() == nil {
			t.Fatal("a resident session that just decided holds no snapshot or no scratch")
		}
		tail, err := sc.TraceTail(ctx, 500)
		if err != nil {
			t.Fatal(err)
		}
		if info, err = sc.Info(ctx); err != nil {
			t.Fatal(err)
		}
		return decides, tail.Events, info
	}

	evicted, evictedEvents, evictedInfo := run(true)
	control, controlEvents, controlInfo := run(false)
	if want := (steps - 1) / evictEvery; evictedInfo.Evictions < want || evictedInfo.Restores < want {
		t.Fatalf("evicted run: %d evictions, %d restores, want at least %d of each", evictedInfo.Evictions, evictedInfo.Restores, want)
	}
	if controlInfo.Evictions != 0 {
		t.Fatalf("control run evicted: %+v", controlInfo)
	}
	if !reflect.DeepEqual(evicted, control) {
		t.Fatalf("decisions diverge across evictions:\n evicted: %+v\n control: %+v", evicted, control)
	}
	if len(evictedEvents) != 2*steps || !reflect.DeepEqual(evictedEvents, controlEvents) {
		t.Fatalf("trace events diverge across evictions:\n evicted: %s\n control: %s", evictedEvents, controlEvents)
	}

	// Deleting drops what eviction drops.
	svc, ts := newSessionService(t, 0)
	sc := NewClient(ts.URL, nil).Session("a")
	if _, err := sc.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		if _, err := sc.Decide(ctx, churnWorld(nVMs, nHosts, step)); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := svc.mgr.get("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if sess.snap != nil || sess.scratch.Load() != nil {
		t.Fatal("a deleted session keeps its snapshot or its scratch")
	}

	// Handing the session to its ring owner drops it too: node a holds a
	// session that b owns, as in TestClusterRebalanceMovesMisplacedSession,
	// and a rebalance moves it.
	tc := newTestCluster(t, 2, "a", "b")
	id := tc.idOwnedBy(t, "a", "b")
	url := tc.urls["a"] + "/v2/sessions/" + id
	fwd := map[string]string{forwardedHeader: "test"}
	if resp := doJSON(t, http.MethodPut, url, clusterSpec, fwd, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodPost, url+"/decide", sessionWorld(4, 3, 0), fwd, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("full decide: HTTP %d", resp.StatusCode)
	}
	// A binary elided decide leaves its request storage on the session.
	elidedWorld := sessionWorld(4, 3, 1)
	elided, err := encodeElided(&elidedWorld)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/decide", bytes.NewReader(elided))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", elidedMediaType)
	req.Header.Set(forwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("elided decide: HTTP %d", resp.StatusCode)
	}
	if sess, err = tc.svcs["a"].mgr.get(id); err != nil {
		t.Fatal(err)
	}
	if sess.snap == nil || sess.scratch.Load() == nil {
		t.Fatal("a session that just decided an elided snapshot holds no snapshot or no scratch")
	}
	if moved, err := tc.svcs["a"].Rebalance(); err != nil || moved.Moved != 1 {
		t.Fatalf("rebalance = %+v, %v; want one session moved", moved, err)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.learner != nil || sess.snap != nil || sess.scratch.Load() != nil {
		t.Fatalf("a session handed to its owner keeps learner %t, snapshot %t, scratch %t",
			sess.learner != nil, sess.snap != nil, sess.scratch.Load() != nil)
	}
}

// postOK posts body as contentType to path on h, with no socket, and fails
// unless the answer is 200.
func postOK(tb testing.TB, h http.Handler, path, contentType string, body []byte) {
	tb.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
}

// TestBatchHoldsOneSnapshot is the regression test for a batch's memory: the
// service used to build every item's snapshot before the learner saw the
// first, so an admitted batch held items × O(N + M) bytes (373 MB for 1 024
// items at 10 000 × 1 000). A 64-item elided batch on a 2 000-host session
// must now allocate, all told, less than eight snapshots' worth.
func TestBatchHoldsOneSnapshot(t *testing.T) {
	const nVMs, nHosts, batch = 40, 2000, 64
	svc, ts := newSessionService(t, 0)
	ctx := context.Background()
	sc := NewClient(ts.URL, nil).Session("a")
	if _, err := sc.Create(ctx, SessionSpec{NumVMs: nVMs, NumHosts: nHosts, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	// Establish the base and warm every retained buffer, then encode the
	// batch by hand so that only the service's work is measured.
	if _, err := sc.Decide(ctx, churnWorld(nVMs, nHosts, 0)); err != nil {
		t.Fatal(err)
	}
	mkBody := func(from int) []byte {
		var req BatchDecideRequest
		for k := 0; k < batch; k++ {
			w := churnWorld(nVMs, nHosts, from+k)
			w.Hosts[(from+k)*131%nHosts].Failed = false // keep the rebuild tier out of the byte count
			req.Items = append(req.Items, BatchDecideItem{State: w, Feedback: &FeedbackRequest{Step: from + k - 1, StepCost: 0.3}})
		}
		w := &req.Items[0].State
		body, err := appendBinaryBatch(nil, req.Items, digestOf(w))
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	handler := svc.Handler()
	post := func(body []byte) {
		t.Helper()
		postOK(t, handler, "/v2/sessions/a/decide/batch", elidedMediaType, body)
	}
	post(mkBody(1)) // sizes the session's scratch for a batch
	body := mkBody(1 + batch)

	world := churnWorld(nVMs, nHosts, 0)
	base := newSnapshotBase(&world, digestOf(&world))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := world.snapshot(base, 0.7, 300)
	runtime.ReadMemStats(&after)
	oneSnapshot := after.TotalAlloc - before.TotalAlloc
	runtime.KeepAlive(snap)

	runtime.ReadMemStats(&before)
	post(body)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8*oneSnapshot {
		t.Fatalf("a %d-item batch allocated %d bytes, one snapshot is %d: want under 8 of them", batch, got, oneSnapshot)
	}
}

// TestOnlyCanonicalBodiesLeaveScratch: the session's scratch slot is filled
// by binary elided requests alone. A full-form body — 594 KB at 10 000 ×
// 1 000, sent once per session — and an elided request spelled in JSON leave
// it empty, so nothing above the binary body's size is ever held.
func TestOnlyCanonicalBodiesLeaveScratch(t *testing.T) {
	svc, _ := newSessionService(t, 0)
	full := grid10k()
	sess, _, err := svc.mgr.put("grid", SessionSpec{NumVMs: len(full.VMs), NumHosts: len(full.Hosts)})
	if err != nil {
		t.Fatal(err)
	}
	handler := svc.Handler()
	post := func(contentType string, body []byte) {
		t.Helper()
		postOK(t, handler, "/v2/sessions/grid/decide", contentType, body)
	}
	post("application/json", mustMarshal(t, full))
	if sess.scratch.Load() != nil {
		t.Fatal("a full-form request left its storage on the session")
	}
	elided, err := encodeElided(&full)
	if err != nil {
		t.Fatal(err)
	}
	post(elidedMediaType, elided)
	sc := sess.scratch.Load()
	if sc == nil {
		t.Fatal("a binary elided request left no scratch")
	}
	if hint := elidedSizeHint(&full); cap(sc.body) > hint || cap(sc.vms) != len(full.VMs) {
		t.Fatalf("scratch holds a %d-byte body buffer and %d VM entries; the elided hint is %d bytes, the world %d VMs",
			cap(sc.body), cap(sc.vms), hint, len(full.VMs))
	}
	post(elidedMediaType, elided)
	if sess.scratch.Load() != sc {
		t.Fatal("the next binary request did not reuse the scratch")
	}
	post("application/json", mustMarshal(t, elideSnapshot(&full, digestOf(&full))))
	if sess.scratch.Load() != nil {
		t.Fatal("a JSON-decoded request left its storage on the session")
	}
}

// holdingTransport answers requests itself. The hold-th one it answers 409
// without touching the request body, which it keeps open — a server that
// replied before reading everything, with net/http still writing the body
// out; every other body it drains and closes before answering 200.
type holdingTransport struct {
	hold, n int
	held    io.ReadCloser
}

func (h *holdingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h.n++
	status, body := http.StatusOK, `{"step":0,"migrations":[]}`
	if h.n == h.hold {
		h.held = r.Body
		status, body = http.StatusConflict, `{"error":"snapshot base conflict"}`
	} else {
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{StatusCode: status, Body: io.NopCloser(strings.NewReader(body)), Header: http.Header{}, Request: r}, nil
}

// TestClientBufferWaitsForTheTransport: the elided body's buffer goes back to
// the view's spare slot when the transport closes the request body, not when
// Decide returns — so the full-form resend after a 409, and whatever the
// caller sends next, cannot overwrite bytes a request still in flight is
// reading.
func TestClientBufferWaitsForTheTransport(t *testing.T) {
	tr := &holdingTransport{hold: 2}
	sc := NewClient("http://megh.test", &http.Client{Transport: tr}).Session("a")
	ctx := context.Background()
	if _, err := sc.Decide(ctx, elideWorld(0)); err != nil { // full: establishes the base
		t.Fatal(err)
	}
	req := elideWorld(1)
	if _, err := sc.Decide(ctx, req); err != nil { // elided → 409 (body held) → full → 200
		t.Fatal(err)
	}
	if tr.n != 3 || tr.held == nil {
		t.Fatalf("%d requests, held body %v: want the elided attempt held and one resend", tr.n, tr.held)
	}
	if sc.spare.Load() != nil {
		t.Fatal("the buffer went back to the view while a request body over it was still open")
	}
	if _, err := sc.Decide(ctx, elideWorld(2)); err != nil { // must encode into a buffer of its own
		t.Fatal(err)
	}
	want, err := encodeElided(&req)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(tr.held); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the held request body changed under its reader (err %v):\n got %s\nwant %s", err, got, want)
	}
	tr.held.Close()
	tr.held.Close() // net/http may close a body twice
	if first := tr.held.(*sharedBodyReader).b; sc.spare.Load() != first || first.refs.Load() != 0 {
		t.Fatalf("closing the last request body did not return the buffer (refs %d)", first.refs.Load())
	}
}

// TestFeedbackReusesTheViewsBuffer: a feedback post encodes into the view's
// spare buffer and leaves it there, as Decide does, so consecutive feedbacks
// on one view write into one backing array.
func TestFeedbackReusesTheViewsBuffer(t *testing.T) {
	tr := &holdingTransport{}
	sc := NewClient("http://megh.test", &http.Client{Transport: tr}).Session("a")
	var arrays []*byte
	for step := 0; step < 2; step++ {
		if err := sc.Feedback(context.Background(), FeedbackRequest{Step: step, StepCost: 0.25}); err != nil {
			t.Fatal(err)
		}
		spare := sc.spare.Load()
		if spare == nil || cap(spare.buf) == 0 {
			t.Fatalf("feedback %d left no buffer on the view", step)
		}
		arrays = append(arrays, &spare.buf[:1][0])
	}
	if tr.n != 2 || arrays[0] != arrays[1] {
		t.Fatalf("%d posts; the second feedback wrote into a new array: %p, then %p", tr.n, arrays[0], arrays[1])
	}
}

// BenchmarkDecideHandler is the service's own share of a decide, handler in
// to handler out, with no socket: the /v2 decide route over a recorder, fed
// the binary elided body of the 10 000 × 1 000 grid in steady state (base
// established, snapshot and scratch retained). `make bench-alloc-gate` bounds
// its B/op: before the session retained anything a decide allocated ≈ 455 KB
// here (snapshot 364, body 50, VM entries 40).
func BenchmarkDecideHandler(b *testing.B) {
	b.Run("elided-grid10k", func(b *testing.B) {
		svc, err := New(Config{NumVMs: 2, NumHosts: 2})
		if err != nil {
			b.Fatal(err)
		}
		grid := grid10k()
		if _, _, err := svc.mgr.put("grid", SessionSpec{NumVMs: len(grid.VMs), NumHosts: len(grid.Hosts)}); err != nil {
			b.Fatal(err)
		}
		full, err := json.Marshal(grid)
		if err != nil {
			b.Fatal(err)
		}
		elided, err := encodeElided(&grid)
		if err != nil {
			b.Fatal(err)
		}
		handler := svc.Handler()
		postOK(b, handler, "/v2/sessions/grid/decide", "application/json", full)
		postOK(b, handler, "/v2/sessions/grid/decide", elidedMediaType, elided)
		b.SetBytes(int64(len(elided)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postOK(b, handler, "/v2/sessions/grid/decide", elidedMediaType, elided)
		}
	})
}
