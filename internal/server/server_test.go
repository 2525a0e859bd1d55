package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"megh/internal/core"
	"megh/internal/obs"
	"megh/internal/trace"
)

// testWorld builds a small valid snapshot: nVMs VMs spread round-robin on
// nHosts hosts, with VM 0 optionally overloading host 0.
func testWorld(nVMs, nHosts int, hotVM0 bool) StateRequest {
	req := StateRequest{Step: 0}
	for i := 0; i < nHosts; i++ {
		req.Hosts = append(req.Hosts, HostState{
			MIPS: 4000, RAMMB: 8192, BandwidthMbps: 1000, PowerModel: "g4",
		})
	}
	for j := 0; j < nVMs; j++ {
		util := 0.3
		host := j % nHosts
		if hotVM0 {
			if j == 0 {
				util = 1.0
			}
			if j == 1 {
				host = 0 // co-locate with the hot VM so host 0 overloads
			}
		}
		req.VMs = append(req.VMs, VMState{
			Host: host, Utilization: util,
			MIPS: 2500, RAMMB: 1024, BandwidthMbps: 100,
		})
	}
	return req
}

func newTestService(t *testing.T, nVMs, nHosts int, checkpoint string) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(Config{
		NumVMs: nVMs, NumHosts: nHosts,
		CheckpointPath: checkpoint, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumVMs: 0, NumHosts: 2}); err == nil {
		t.Fatal("zero VMs should error")
	}
	if _, err := New(Config{NumVMs: 2, NumHosts: 2, OverloadThreshold: 2}); err == nil {
		t.Fatal("bad threshold should error")
	}
	if _, err := New(Config{NumVMs: 2, NumHosts: 2, StepSeconds: -1}); err == nil {
		t.Fatal("negative τ should error")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestDecideRespondsToOverload(t *testing.T) {
	// Host 0 holds the hot VM 0 (2500 MIPS at 100%) plus VM 1, putting it
	// at 81% > β; the other VMs occupy hosts 2–5 too heavily to absorb
	// VM 0, so the learner must wake the empty host 6 (overload sheds may
	// wake sleeping hosts as a fallback).
	_, ts := newTestService(t, 6, 7, "")
	sawMigration := false
	for step := 0; step < 20 && !sawMigration; step++ {
		world := testWorld(6, 7, true)
		world.Step = step
		resp := postJSON(t, ts.URL+"/v2/sessions/default/decide", world)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide status %d", resp.StatusCode)
		}
		var out DecideResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		for _, m := range out.Migrations {
			if m.VM == 0 && m.Dest != 0 {
				sawMigration = true
			}
		}
		fb := postJSON(t, ts.URL+"/v2/sessions/default/feedback", FeedbackRequest{Step: step, StepCost: 0.5})
		if fb.StatusCode != http.StatusNoContent {
			t.Fatalf("feedback status %d", fb.StatusCode)
		}
	}
	if !sawMigration {
		t.Fatal("service never migrated the hot VM off its overloaded host")
	}
}

func TestDecideRejectsMalformed(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	cases := []StateRequest{
		{},                     // empty
		testWorld(4, 2, false), // host count mismatch
		testWorld(3, 3, false), // VM count mismatch
		func() StateRequest { w := testWorld(4, 3, false); w.VMs[0].Host = 99; return w }(),
		func() StateRequest { w := testWorld(4, 3, false); w.VMs[1].Utilization = 2; return w }(),
		func() StateRequest { w := testWorld(4, 3, false); w.Step = -1; return w }(),
		func() StateRequest { w := testWorld(4, 3, false); w.Hosts[0].MIPS = 0; return w }(),
	}
	for i, c := range cases {
		resp := postJSON(t, ts.URL+"/v2/sessions/default/decide", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Non-JSON body.
	resp, err := http.Post(ts.URL+"/v2/sessions/default/decide", "application/json",
		strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status %d", resp.StatusCode)
	}
}

func TestFeedbackRejectsNegativeCost(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	resp := postJSON(t, ts.URL+"/v2/sessions/default/feedback", FeedbackRequest{StepCost: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	postJSON(t, ts.URL+"/v2/sessions/default/decide", testWorld(4, 3, true))
	resp, err := http.Get(ts.URL + "/v2/sessions/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumVMs != 4 || stats.NumHosts != 3 {
		t.Fatalf("stats world = %d×%d", stats.NumVMs, stats.NumHosts)
	}
	if stats.Decisions != 1 {
		t.Fatalf("decisions = %d, want 1", stats.Decisions)
	}
	if stats.Temperature <= 0 {
		t.Fatal("temperature missing")
	}
}

func TestCheckpointAndRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "megh.ckpt")
	svc, ts := newTestService(t, 4, 3, path)

	// Exercise the learner, then checkpoint.
	for step := 0; step < 5; step++ {
		world := testWorld(4, 3, true)
		world.Step = step
		postJSON(t, ts.URL+"/v2/sessions/default/decide", world)
		postJSON(t, ts.URL+"/v2/sessions/default/feedback", FeedbackRequest{Step: step, StepCost: 0.4})
	}
	resp := postJSON(t, ts.URL+"/v2/sessions/default/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	var ck CheckpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	if ck.Path != path || ck.Bytes <= 0 {
		t.Fatalf("checkpoint response %+v", ck)
	}
	svc.def.mu.Lock()
	wantTemp := svc.def.learner.Temperature()
	wantNNZ := svc.def.learner.QTableNNZ()
	svc.def.mu.Unlock()

	// A fresh service restores from the file.
	restored, err := New(Config{NumVMs: 4, NumHosts: 3, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if restored.def.learner.Temperature() != wantTemp {
		t.Fatalf("restored temperature %g, want %g",
			restored.def.learner.Temperature(), wantTemp)
	}
	if restored.def.learner.QTableNNZ() != wantNNZ {
		t.Fatalf("restored Q-table %d entries, want %d",
			restored.def.learner.QTableNNZ(), wantNNZ)
	}
}

func TestCheckpointWithoutPathFails(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	resp := postJSON(t, ts.URL+"/v2/sessions/default/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("status %d, want 412", resp.StatusCode)
	}
}

func TestConcurrentDecides(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				world := testWorld(4, 3, i%2 == 0)
				raw, _ := json.Marshal(world)
				resp, err := http.Post(ts.URL+"/v2/sessions/default/decide", "application/json", bytes.NewReader(raw))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- nil
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleCheckpointRefusedAtStartup is the regression test for the
// dimension-validation bug: restoring a checkpoint from a different world
// size must fail at New time with a clean error, not panic the decide path
// on the first snapshot.
func TestStaleCheckpointRefusedAtStartup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "megh.ckpt")
	_, ts := newTestService(t, 4, 3, path)
	resp := postJSON(t, ts.URL+"/v2/sessions/default/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	// A service for a different world must refuse the stale file.
	_, err := New(Config{NumVMs: 5, NumHosts: 4, CheckpointPath: path})
	if err == nil {
		t.Fatal("stale 4×3 checkpoint restored into a 5×4 service")
	}
	if !strings.Contains(err.Error(), "4×3") || !strings.Contains(err.Error(), "5×4") {
		t.Fatalf("error should name both world sizes, got: %v", err)
	}
}

// TestDefaultSessionRestoresFromCheckpointDir: with a checkpoint directory
// and no checkpoint path, the default session restores from the file it
// checkpoints to, <dir>/default.ckpt — the learner a restart finds is the one
// it left — and refuses that file when the world size changed.
func TestDefaultSessionRestoresFromCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	for step := 0; step < 4; step++ {
		world := testWorld(4, 3, step%2 == 0)
		world.Step = step
		for _, post := range []struct {
			path string
			body any
		}{
			{"/decide", world},
			{"/feedback", FeedbackRequest{Step: step, StepCost: 0.5 + 0.1*float64(step)}},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/sessions/default"+post.path,
				bytes.NewReader(mustMarshal(t, post.body))))
			if rec.Code >= 300 {
				t.Fatalf("%s: HTTP %d %s", post.path, rec.Code, rec.Body)
			}
		}
	}
	if _, err := svc.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	image := func(svc *Service) []byte {
		var img bytes.Buffer
		if err := svc.def.learner.SaveState(&img); err != nil {
			t.Fatal(err)
		}
		return img.Bytes()
	}
	restarted, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.def.restores != 1 {
		t.Fatalf("restarted default session reports restores %d, want 1", restarted.def.restores)
	}
	if !bytes.Equal(image(restarted), image(svc)) {
		t.Fatal("restarted default session's learner differs from the one checkpointed")
	}
	if _, err := New(Config{NumVMs: 5, NumHosts: 4, CheckpointDir: dir}); err == nil ||
		!strings.Contains(err.Error(), errCheckpointWorld.Error()) {
		t.Fatalf("5×4 service over a 4×3 default.ckpt: err %v, want %q", err, errCheckpointWorld)
	}
}

// TestLearnerPanicBecomesHTTP500 is the regression test for the panic
// guard: a learner panic inside either decide handler must answer 500 with a
// JSON error body instead of killing the connection, and must leave the
// session usable — its lock, its admission slot and its request scratch
// released — so the next request to it answers.
func TestLearnerPanicBecomesHTTP500(t *testing.T) {
	for _, tc := range []struct {
		route, path string
		body        any
	}{
		{"/v2/sessions/:id/decide", "/decide", testWorld(4, 3, false)},
		{"/v2/sessions/:id/decide/batch", "/decide/batch", BatchDecideRequest{Items: []BatchDecideItem{
			{State: sessionWorld(4, 3, 0)},
			{State: sessionWorld(4, 3, 1), Feedback: &FeedbackRequest{Step: 0, StepCost: 0.4}},
		}}},
	} {
		t.Run(tc.path[1:], func(t *testing.T) {
			// A one-slot gate: a slot the panic failed to release would
			// refuse the follow-up with 429.
			svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, MaxInFlight: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			url := ts.URL + "/v2/sessions/default" + tc.path
			// Simulate a corrupted restore: a learner whose world disagrees
			// with the service configuration.
			bad, err := core.New(core.DefaultConfig(3, 3, 1))
			if err != nil {
				t.Fatal(err)
			}
			svc.def.mu.Lock()
			good := svc.def.learner
			svc.def.learner = bad
			svc.def.mu.Unlock()

			resp := postJSON(t, url, tc.body)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500", resp.StatusCode)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("500 body is not the JSON error envelope: %v", err)
			}
			if e.Error == "" {
				t.Fatal("500 body carries no error message")
			}
			// The error counter must have recorded it.
			if got := svc.Metrics().Counter("megh_http_errors_total", "",
				obs.Labels{"route": tc.route}).Value(); got != 1 {
				t.Fatalf("error counter = %d, want 1", got)
			}

			if !svc.def.mu.TryLock() {
				t.Fatal("session lock still held after the panic")
			}
			svc.def.learner = good
			svc.def.mu.Unlock()
			raw, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			client := &http.Client{Timeout: 10 * time.Second}
			follow, err := client.Post(url, "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("follow-up request did not answer: %v", err)
			}
			defer follow.Body.Close()
			if follow.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(follow.Body)
				t.Fatalf("follow-up request answered %d, want 200: %s", follow.StatusCode, body)
			}
		})
	}
}

// TestConcurrentCheckpointsDoNotCorrupt is the regression test for the
// checkpoint temp-file race: concurrent writers must each complete a
// private temp file, leaving a fully written checkpoint whichever rename
// lands last.
func TestConcurrentCheckpointsDoNotCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "megh.ckpt")
	svc, ts := newTestService(t, 4, 3, path)
	for step := 0; step < 3; step++ {
		world := testWorld(4, 3, true)
		world.Step = step
		postJSON(t, ts.URL+"/v2/sessions/default/decide", world)
		postJSON(t, ts.URL+"/v2/sessions/default/feedback", FeedbackRequest{Step: step, StepCost: 0.4})
	}
	const writers = 8
	done := make(chan int, writers)
	for g := 0; g < writers; g++ {
		go func() {
			resp := postJSON(t, ts.URL+"/v2/sessions/default/checkpoint", struct{}{})
			done <- resp.StatusCode
		}()
	}
	for g := 0; g < writers; g++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("concurrent checkpoint status %d", code)
		}
	}
	// The surviving file must decode as a complete learner image.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.LoadState(f); err != nil {
		t.Fatalf("checkpoint corrupted by concurrent writers: %v", err)
	}
	// No stray temp files may remain.
	leftovers, err := filepath.Glob(path + ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("stray temp files left behind: %v", leftovers)
	}
	_ = svc
}

// TestMetricsEndpoint asserts the operational surface: /metrics serves
// valid Prometheus text including the decide-latency histogram, per-route
// request counters, and the learner gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	postJSON(t, ts.URL+"/v2/sessions/default/decide", testWorld(4, 3, true))
	postJSON(t, ts.URL+"/v2/sessions/default/feedback", FeedbackRequest{Step: 0, StepCost: 0.4})
	postJSON(t, ts.URL+"/v2/sessions/default/decide", StateRequest{}) // one 400 for the error counter

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE megh_http_requests_total counter",
		`megh_http_requests_total{route="/v2/sessions/:id/decide"} 2`,
		`megh_http_requests_total{route="/v2/sessions/:id/feedback"} 1`,
		`megh_http_errors_total{route="/v2/sessions/:id/decide"} 1`,
		"# TYPE megh_http_request_seconds histogram",
		`megh_http_request_seconds_bucket{route="/v2/sessions/:id/decide",le="+Inf"} 2`,
		`megh_http_request_seconds_count{route="/v2/sessions/:id/decide"} 2`,
		"# TYPE megh_decide_seconds histogram",
		"megh_decide_seconds_count 1",
		"# TYPE megh_qtable_nnz gauge",
		"# TYPE megh_qtable_resident_bytes gauge",
		"# TYPE megh_temperature gauge",
		"megh_http_in_flight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every sample line must match the exposition grammar.
	line := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)
	for _, l := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("malformed metrics line %q", l)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics body:\n%s", body)
	}
}

func TestTraceTailEndpoint(t *testing.T) {
	tracer, err := trace.New(trace.Options{RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// A decide and a feedback should each leave one event in the ring.
	resp := postJSON(t, ts.URL+"/v2/sessions/default/decide", testWorld(4, 3, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v2/sessions/default/feedback", FeedbackRequest{Step: 0, StepCost: 1.5, EnergyCost: 1, SLACost: 0.5})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("feedback status %d", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/v2/sessions/default/trace/tail?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var tail TraceTailResponse
	if err := json.NewDecoder(get.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	if !tail.Enabled {
		t.Fatal("tail reports tracing disabled")
	}
	if len(tail.Events) != 2 {
		t.Fatalf("tail holds %d events, want 2", len(tail.Events))
	}
	var first, second trace.Event
	if err := json.Unmarshal(tail.Events[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tail.Events[1], &second); err != nil {
		t.Fatal(err)
	}
	if first.Kind != trace.KindDecide || first.Policy == "" {
		t.Fatalf("first event is not a decide event: %+v", first)
	}
	if second.Kind != trace.KindStep || second.StepCost != 1.5 {
		t.Fatalf("second event is not the feedback step event: %+v", second)
	}

	if resp, err := http.Get(ts.URL + "/v2/sessions/default/trace/tail?n=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad n should 400, got %d", resp.StatusCode)
		}
	}
}

// TestQueryNRefusals: the two routes that take a ?n= count refuse a
// negative or non-numeric one alike, with 400 and the same message.
func TestQueryNRefusals(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	for _, path := range []string{"/v2/sessions/default/trace/tail", "/v2/health"} {
		for _, n := range []string{"-1", "x"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?n="+n, nil))
			want := string(mustMarshal(t, errorResponse{Error: fmt.Sprintf("invalid n %q", n)}))
			if got := strings.TrimSpace(rec.Body.String()); rec.Code != http.StatusBadRequest || got != want {
				t.Errorf("%s?n=%s: HTTP %d %s, want 400 %s", path, n, rec.Code, got, want)
			}
		}
	}
}

func TestTraceTailDisabled(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	get, err := http.Get(ts.URL + "/v2/sessions/default/trace/tail")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var tail TraceTailResponse
	if err := json.NewDecoder(get.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	if tail.Enabled || len(tail.Events) != 0 {
		t.Fatalf("untraced service must report disabled: %+v", tail)
	}
}

// TestTraceTailBody pins the tail route's hand-written body to what
// writeJSON makes of the same TraceTailResponse, byte for byte: with decide
// and step events, with n=0, from an empty ring and from a service without a
// tracer (the last three leave events out, as omitempty does).
func TestTraceTailBody(t *testing.T) {
	tracer, err := trace.New(trace.Options{RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, svc *Service, n int, want TraceTailResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, want)
		got := httptest.NewRecorder()
		svc.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodGet,
			"/v2/sessions/default/trace/tail?n="+strconv.Itoa(n), nil))
		if got.Code != http.StatusOK || got.Body.String() != rec.Body.String() {
			t.Errorf("%s: HTTP %d\n%s\nwriteJSON writes\n%s", what, got.Code, got.Body, rec.Body)
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", what, ct)
		}
	}
	check("empty ring", traced, 10, TraceTailResponse{Enabled: true})
	check("no tracer", untraced, 10, TraceTailResponse{})

	h := traced.Handler()
	for step := 0; step < 3; step++ {
		world := testWorld(4, 3, true)
		world.Step = step
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/sessions/default/decide",
			bytes.NewReader(mustMarshal(t, world))))
		if rec.Code != http.StatusOK {
			t.Fatalf("decide: HTTP %d %s", rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/sessions/default/feedback",
			bytes.NewReader(mustMarshal(t, FeedbackRequest{Step: step, StepCost: 0.25 * float64(step+1), SLACost: 1e-9}))))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("feedback: HTTP %d %s", rec.Code, rec.Body)
		}
	}
	tail := func(n int) []json.RawMessage {
		var events []json.RawMessage
		if err := json.Unmarshal(append(append([]byte{'['}, tracer.AppendTail(nil, n)...), ']'), &events); err != nil {
			t.Fatal(err)
		}
		return events
	}
	if events := tail(5); len(events) != 5 {
		t.Fatalf("ring holds %d of the 5 events asked for", len(events))
	}
	check("decide and step events", traced, 5, TraceTailResponse{Enabled: true, Events: tail(5)})
	check("n=0", traced, 0, TraceTailResponse{Enabled: true, Events: tail(0)})
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", path, resp.StatusCode)
		}
	}
}
