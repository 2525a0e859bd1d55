package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// putSession creates a /v2 session and fails the test unless it answers
// 201.
func putSession(t *testing.T, base, id string, spec SessionSpec) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v2/sessions/"+id, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("creating session %q: %d", id, resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update (the flag routes_test.go registers).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed — update with -update and document the change:\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

// TestHealthGoldens pins the JSON schemas of both health endpoints on a
// fresh service: a session that has never decided has fully deterministic
// telemetry (no probe yet, temperature at Temp0), so the golden bytes pin
// the wire shape without depending on learner numerics.
func TestHealthGoldens(t *testing.T) {
	_, ts := newSessionService(t, 0)
	putSession(t, ts.URL, "golden", SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 1})

	code, body := getBody(t, ts.URL+"/v2/sessions/golden/health")
	if code != http.StatusOK {
		t.Fatalf("session health: %d %s", code, body)
	}
	checkGolden(t, "health_session.golden", body)

	code, body = getBody(t, ts.URL+"/v2/health")
	if code != http.StatusOK {
		t.Fatalf("fleet health: %d %s", code, body)
	}
	checkGolden(t, "health_fleet.golden", body)
}

// driveSession runs steps decide+feedback rounds against a /v2 session.
func driveSession(t *testing.T, base, id string, nVMs, nHosts, steps int, cost float64) {
	t.Helper()
	for i := 0; i < steps; i++ {
		world := sessionWorld(nVMs, nHosts, i)
		if code, body := rawPost(t, base+"/v2/sessions/"+id+"/decide", world); code != http.StatusOK {
			t.Fatalf("decide step %d: %d %s", i, code, body)
		}
		fb := FeedbackRequest{Step: i, StepCost: cost, EnergyCost: cost}
		if code, body := rawPost(t, base+"/v2/sessions/"+id+"/feedback", fb); code != http.StatusNoContent {
			t.Fatalf("feedback step %d: %d %s", i, code, body)
		}
	}
}

// TestHealthTracksLearning drives a session and checks the tracker's
// telemetry shows up on the endpoint: decides counted, drift observed,
// verdict healthy under benign costs.
func TestHealthTracksLearning(t *testing.T) {
	_, ts := newSessionService(t, 0)
	putSession(t, ts.URL, "w", SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 5})
	driveSession(t, ts.URL, "w", 4, 3, 8, 0.5)

	var resp SessionHealthResponse
	code, body := getBody(t, ts.URL+"/v2/sessions/w/health")
	if code != http.StatusOK {
		t.Fatalf("health: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != "live" || resp.Health.Decides != 8 {
		t.Fatalf("health %+v", resp)
	}
	if resp.Health.Verdict != "healthy" {
		t.Fatalf("benign run scored %q (%s)", resp.Health.Verdict, resp.Health.Reason)
	}
	if resp.Health.Applied == 0 {
		t.Fatal("feedback-driven updates should have been applied")
	}
}

// TestHealthDivergenceSurfacesInFleet feeds one session absurd costs and
// checks both the per-session verdict and the fleet roll-up flag it:
// verdict diverging, worst-N headed by the sick session.
func TestHealthDivergenceSurfacesInFleet(t *testing.T) {
	_, ts := newSessionService(t, 0)
	for _, id := range []string{"ok", "sick"} {
		putSession(t, ts.URL, id, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 5})
	}
	driveSession(t, ts.URL, "ok", 4, 3, 4, 0.5)
	driveSession(t, ts.URL, "sick", 4, 3, 4, 5e12)

	var sh SessionHealthResponse
	_, body := getBody(t, ts.URL+"/v2/sessions/sick/health")
	if err := json.Unmarshal(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Health.Verdict != "diverging" || sh.Health.Reason == "" {
		t.Fatalf("absurd costs scored %q (%s)", sh.Health.Verdict, sh.Health.Reason)
	}

	var fleet FleetHealthResponse
	_, body = getBody(t, ts.URL+"/v2/health?n=2")
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.SessionsDefined != 3 || fleet.SessionsLive != 3 {
		t.Fatalf("fleet counts %+v", fleet)
	}
	if fleet.Verdicts["diverging"] != 1 || fleet.Verdicts["healthy"] != 2 {
		t.Fatalf("verdict histogram %+v", fleet.Verdicts)
	}
	if len(fleet.Worst) != 2 || fleet.Worst[0].ID != "sick" || fleet.Worst[0].Verdict != "diverging" {
		t.Fatalf("worst-N %+v", fleet.Worst)
	}
	if fleet.SLO == nil || len(fleet.SLO.Windows) != 2 {
		t.Fatalf("SLO status missing: %+v", fleet.SLO)
	}
	if fleet.SLO.Windows[0].Total == 0 {
		t.Fatal("SLO saw no decides")
	}
}

// TestHealthDoesNotRestoreEvicted is the satellite acceptance check:
// observing an evicted session — its health endpoint and the global
// /metrics re-export — must not thaw the learner.
func TestHealthDoesNotRestoreEvicted(t *testing.T) {
	_, ts := newSessionService(t, 1)
	for _, id := range []string{"a", "b"} {
		putSession(t, ts.URL, id, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 5})
	}
	// Cap 1 with the pinned default means a and b take turns evicting each
	// other: creating b evicts a, driving a thaws it and evicts b, driving
	// b evicts a again. a ends evicted with 2 evictions and 1 restore.
	driveSession(t, ts.URL, "a", 4, 3, 2, 0.5)
	driveSession(t, ts.URL, "b", 4, 3, 1, 0.5)

	var info SessionInfo
	_, body := getBody(t, ts.URL+"/v2/sessions/a")
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Live {
		t.Fatalf("session a should be evicted: %+v", info)
	}
	restoresBefore := info.Restores

	var sh SessionHealthResponse
	_, body = getBody(t, ts.URL+"/v2/sessions/a/health")
	if err := json.Unmarshal(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.State != "evicted" {
		t.Fatalf("health state %q, want evicted", sh.State)
	}
	// The detached tracker still serves the pre-eviction telemetry.
	if sh.Health.Decides != 2 || sh.Health.Evictions != 2 {
		t.Fatalf("detached snapshot %+v", sh.Health)
	}

	// Fleet health and the global scrape also observe without restoring.
	getBody(t, ts.URL+"/v2/health")
	getBody(t, ts.URL+"/metrics")

	_, body = getBody(t, ts.URL+"/v2/sessions/a")
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Live || info.Restores != restoresBefore {
		t.Fatalf("observation restored the session: %+v", info)
	}

	// A decide is a real touch: it restores, and health follows along.
	driveSession(t, ts.URL, "a", 4, 3, 1, 0.5)
	_, body = getBody(t, ts.URL+"/v2/sessions/a/health")
	if err := json.Unmarshal(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Health.Decides != 3 {
		t.Fatalf("post-restore snapshot %+v", sh.Health)
	}
}

// TestFleetMetricsSessionAggregation checks the global /metrics re-export:
// per-session families renamed into megh_session_*, the busiest topK
// sessions keeping their label and the rest folding into session="other",
// with the default session's unlabelled families untouched.
func TestFleetMetricsSessionAggregation(t *testing.T) {
	svc, err := New(Config{
		NumVMs: 4, NumHosts: 3, Seed: 7,
		CheckpointDir:      t.TempDir(),
		MetricsSessionTopK: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	for _, id := range []string{"busy", "idle-a", "idle-b"} {
		putSession(t, ts.URL, id, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 5})
	}
	driveSession(t, ts.URL, "busy", 4, 3, 3, 0.5)
	driveSession(t, ts.URL, "idle-a", 4, 3, 1, 0.5)
	driveSession(t, ts.URL, "idle-b", 4, 3, 1, 0.5)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`megh_session_decide_seconds_count{session="busy"} 3`,
		`megh_session_decide_seconds_count{session="other"} 2`,
		`megh_session_health_verdict{session="busy"} 0`,
		"\nmegh_decide_seconds_count 0\n", // the default session, unlabelled
		"megh_health_verdict 0",
		"megh_slo_decide_fast_burn 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, `session="idle-`) {
		t.Error("topK=1 leaked a non-top session label")
	}
}

// newHTTPServer wires an existing service into httptest (newSessionService
// builds its own config).
func newHTTPServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestDecideExemplarLinksRequestID checks the latency-exemplar chain: a
// decide carrying an X-Request-ID lands its ID in a histogram bucket, and
// the fleet health endpoint surfaces it.
func TestDecideExemplarLinksRequestID(t *testing.T) {
	_, ts := newSessionService(t, 0)
	world := testWorld(4, 3, true)
	raw, _ := json.Marshal(world)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/sessions/default/decide", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "exemplar-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d", resp.StatusCode)
	}

	var fleet FleetHealthResponse
	_, body := getBody(t, ts.URL+"/v2/health")
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range fleet.DecideExemplars {
		if e.Label == "exemplar-probe-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplar for request ID not surfaced: %+v", fleet.DecideExemplars)
	}
}
