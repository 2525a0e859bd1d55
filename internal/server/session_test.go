package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"megh/internal/core"
)

// sessionWorld varies the per-step utilization deterministically so every
// decide sees a different snapshot and the learner keeps learning.
func sessionWorld(nVMs, nHosts, step int) StateRequest {
	req := testWorld(nVMs, nHosts, true)
	req.Step = step
	for j := range req.VMs {
		if j == 0 {
			continue // keep the hot VM hot
		}
		req.VMs[j].Utilization = 0.2 + 0.05*float64((step+j)%8)
	}
	return req
}

// rawPost returns status and raw body bytes, for byte-identity checks.
func rawPost(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func newSessionService(t *testing.T, maxSessions int) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(Config{
		NumVMs: 4, NumHosts: 3, Seed: 7,
		CheckpointDir: t.TempDir(),
		MaxSessions:   maxSessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func TestSessionCreateDecideDelete(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	sc := c.Session("tenant-a")

	info, err := sc.Create(ctx, SessionSpec{NumVMs: 6, NumHosts: 7, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Live || info.ID != "tenant-a" || info.Spec.NumVMs != 6 {
		t.Fatalf("create returned %+v", info)
	}
	// Spec defaults are normalized in from the service configuration.
	if info.Spec.OverloadThreshold != 0.70 || info.Spec.StepSeconds != 300 {
		t.Fatalf("spec not normalized: %+v", info.Spec)
	}
	// Idempotent re-PUT with the identical spec.
	if _, err := sc.Create(ctx, SessionSpec{NumVMs: 6, NumHosts: 7, Seed: 42}); err != nil {
		t.Fatalf("idempotent PUT failed: %v", err)
	}
	// Conflicting spec is refused.
	if _, err := sc.Create(ctx, SessionSpec{NumVMs: 5, NumHosts: 7, Seed: 42}); err == nil {
		t.Fatal("conflicting spec must 409")
	}

	out, err := sc.Decide(ctx, testWorld(6, 7, true))
	if err != nil {
		t.Fatal(err)
	}
	if out.Step != 0 {
		t.Fatalf("decide echoed step %d", out.Step)
	}
	if err := sc.Feedback(ctx, FeedbackRequest{Step: 0, StepCost: 0.5}); err != nil {
		t.Fatal(err)
	}
	stats, err := sc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ID != "tenant-a" || stats.Decisions != 1 || !stats.Live {
		t.Fatalf("stats %+v", stats)
	}
	// The session's decide went through its own ring tracer.
	tail, err := sc.TraceTail(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Enabled || len(tail.Events) != 2 {
		t.Fatalf("session trace tail %+v", tail)
	}
	// The default session's world is 4×3 — a 6×7 snapshot must be refused
	// there, proving the two learners are truly separate.
	if _, err := c.Session(DefaultSessionID).Decide(ctx, testWorld(6, 7, true)); err == nil {
		t.Fatal("default session accepted another tenant's world size")
	}

	list, err := c.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 2 { // default + tenant-a
		t.Fatalf("list has %d sessions, want 2: %+v", len(list.Sessions), list)
	}
	assertSessionGauges(t, ts.URL, 2, 2)

	if err := sc.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Stats(ctx); err == nil {
		t.Fatal("deleted session must 404")
	}
	assertSessionGauges(t, ts.URL, 1, 1)
	// Its checkpoint file must be gone too.
	if _, err := os.Stat(filepath.Join(svc.cfg.CheckpointDir, "tenant-a.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file survived delete: %v", err)
	}
}

func TestSessionIDValidation(t *testing.T) {
	for id, want := range map[string]bool{
		"a": true, "tenant-1": true, "dc.us-east_2": true,
		"": false, ".": false, "..": false, "-x": false, "a/b": false,
		"a b": false, "日本": false,
	} {
		if got := validSessionID(id); got != want {
			t.Errorf("validSessionID(%q) = %v, want %v", id, got, want)
		}
	}
	if validSessionID(string(make([]byte, 65))) {
		t.Error("65-byte id accepted")
	}
}

// TestSessionEvictRestoreByteIdentical is the acceptance check for the
// eviction machinery: a session that is evicted (cap 1) and lazily
// restored must produce byte-identical decide responses and trace events
// to a never-evicted session replaying the same request sequence with the
// same seed — the same oracle the checkpoint-resume differential tests
// use, lifted to the HTTP layer.
func TestSessionEvictRestoreByteIdentical(t *testing.T) {
	const nVMs, nHosts, steps, evictAt = 6, 5, 12, 6
	spec := SessionSpec{NumVMs: nVMs, NumHosts: nHosts, Seed: 99}
	ctx := context.Background()

	run := func(evict bool) (decides [][]byte, events []json.RawMessage, info SessionInfo) {
		maxSessions := 0
		if evict {
			maxSessions = 1
		}
		_, ts := newSessionService(t, maxSessions)
		c := NewClient(ts.URL, nil)
		sc := c.Session("a")
		if _, err := sc.Create(ctx, spec); err != nil {
			t.Fatal(err)
		}
		other := c.Session("b")
		for step := 0; step < steps; step++ {
			if evict && step == evictAt {
				// Creating and touching "b" makes "a" the LRU victim under
				// the cap of one resident learner; "a"'s next decide must
				// restore it from its checkpoint file.
				if _, err := other.Create(ctx, spec); err != nil {
					t.Fatal(err)
				}
				if _, err := other.Decide(ctx, sessionWorld(nVMs, nHosts, 0)); err != nil {
					t.Fatal(err)
				}
				if in, err := sc.Info(ctx); err != nil || in.Live {
					t.Fatalf("session a not evicted (live=%v, err=%v)", in.Live, err)
				}
				// default and b resident, a evicted: three defined, two live.
				assertSessionGauges(t, ts.URL, 2, 3)
			}
			status, body := rawPost(t, ts.URL+"/v2/sessions/a/decide", sessionWorld(nVMs, nHosts, step))
			if status != http.StatusOK {
				t.Fatalf("step %d: decide status %d: %s", step, status, body)
			}
			decides = append(decides, body)
			if err := sc.Feedback(ctx, FeedbackRequest{Step: step, StepCost: 0.4}); err != nil {
				t.Fatal(err)
			}
		}
		tail, err := sc.TraceTail(ctx, 10*steps)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sc.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return decides, tail.Events, in
	}

	evicted, evictedEvents, evictedInfo := run(true)
	control, controlEvents, controlInfo := run(false)

	if evictedInfo.Evictions == 0 || evictedInfo.Restores == 0 {
		t.Fatalf("evicted run never evicted/restored: %+v", evictedInfo)
	}
	if controlInfo.Evictions != 0 || controlInfo.Restores != 0 {
		t.Fatalf("control run evicted unexpectedly: %+v", controlInfo)
	}
	if len(evicted) != len(control) {
		t.Fatalf("decide counts differ: %d vs %d", len(evicted), len(control))
	}
	for i := range evicted {
		if !bytes.Equal(evicted[i], control[i]) {
			t.Fatalf("step %d decide bytes diverge after evict+restore:\n evicted: %s\n control: %s",
				i, evicted[i], control[i])
		}
	}
	// The tracer ring lives on the session, not the learner, so the full
	// event history must match too — including events after the restore.
	if len(evictedEvents) != len(controlEvents) {
		t.Fatalf("trace event counts differ: %d vs %d", len(evictedEvents), len(controlEvents))
	}
	for i := range evictedEvents {
		if !bytes.Equal(evictedEvents[i], controlEvents[i]) {
			t.Fatalf("trace event %d diverges after evict+restore:\n evicted: %s\n control: %s",
				i, evictedEvents[i], controlEvents[i])
		}
	}
}

// TestSessionRestoreAcrossRestart: a brand-new service over the same
// checkpoint directory resumes a session from its file at PUT time.
func TestSessionRestoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 5}
	mk := func() (*Service, *httptest.Server) {
		svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		return svc, ts
	}

	_, ts1 := mk()
	c1 := NewClient(ts1.URL, nil)
	sc1 := c1.Session("persist-me")
	if _, err := sc1.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		if _, err := sc1.Decide(ctx, sessionWorld(4, 3, step)); err != nil {
			t.Fatal(err)
		}
		if err := sc1.Feedback(ctx, FeedbackRequest{Step: step, StepCost: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := sc1.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc1.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	_, ts2 := mk()
	sc2 := NewClient(ts2.URL, nil).Session("persist-me")
	info, err := sc2.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Restores != 1 {
		t.Fatalf("restart PUT should restore from disk, info %+v", info)
	}
	after, err := sc2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.QTableNNZ != before.QTableNNZ || after.Temperature != before.Temperature {
		t.Fatalf("restored learner differs: %+v vs %+v", after, before)
	}
	// A conflicting spec against the on-disk checkpoint is refused.
	if _, err := NewClient(ts2.URL, nil).Session("persist-me2").Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	_, ts3 := mk()
	if _, err := NewClient(ts3.URL, nil).Session("persist-me").
		Create(ctx, SessionSpec{NumVMs: 9, NumHosts: 3, Seed: 5}); err == nil {
		t.Fatal("PUT over a mismatched on-disk checkpoint must fail")
	}
}

// TestLazyRestoreRefusesAnotherWorld: an evicted session whose checkpoint
// file now holds another world's learner refuses it on the next decide —
// naming both worlds — and stays evicted, with no restore counted.
func TestLazyRestoreRefusesAnotherWorld(t *testing.T) {
	svc, ts := newSessionService(t, 1)
	ctx := context.Background()
	c := NewClient(ts.URL, nil)
	a := c.Session("a")
	if _, err := a.Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decide(ctx, sessionWorld(4, 3, 0)); err != nil {
		t.Fatal(err)
	}
	// Under a cap of one resident learner, creating b evicts a.
	if _, err := c.Session("b").Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3}); err != nil {
		t.Fatal(err)
	}
	if info, err := a.Info(ctx); err != nil || info.Live || info.Evictions != 1 {
		t.Fatalf("a after creating b: %+v, %v; want evicted once", info, err)
	}
	other, err := core.New(core.DefaultConfig(5, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SaveStateFile(svc.mgr.checkpointPath("a")); err != nil {
		t.Fatal(err)
	}
	restores := svc.mgr.cRestore.Value()

	status, body := rawPost(t, ts.URL+"/v2/sessions/a/decide", sessionWorld(4, 3, 1))
	if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("holds a 5×4 learner")) ||
		!bytes.Contains(body, []byte(`session \"a\" is 4×3`)) {
		t.Fatalf("decide over another world's checkpoint: %d %s", status, body)
	}
	if info, err := a.Info(ctx); err != nil || info.Live || info.Restores != 0 || svc.mgr.cRestore.Value() != restores {
		t.Fatalf("a after the refused restore: %+v, %v, %d restores counted; want evicted, none", info, err,
			svc.mgr.cRestore.Value()-restores)
	}
}

// assertSessionGauges scrapes the service's resident and defined session
// counts.
func assertSessionGauges(t *testing.T, base string, live, defined float64) {
	t.Helper()
	if l, d := scrapeMetric(t, base, "megh_sessions_live"), scrapeMetric(t, base, "megh_sessions_defined"); l != live || d != defined {
		t.Fatalf("megh_sessions_live %g, megh_sessions_defined %g; want %g and %g", l, d, live, defined)
	}
}

// TestConcurrentSessionsWithEviction drives many tenants concurrently
// through decide/feedback cycles with the eviction cap engaged — the
// -race acceptance scenario. Per-session locking means the tenants only
// meet in the session registry and the eviction scan.
func TestConcurrentSessionsWithEviction(t *testing.T) {
	const tenants, rounds, cap_ = 8, 15, 3
	svc, ts := newSessionService(t, cap_)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := NewClient(ts.URL, nil).Session(fmt.Sprintf("tenant-%d", g))
			if _, err := sc.Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: int64(g)}); err != nil {
				errs <- fmt.Errorf("tenant %d create: %w", g, err)
				return
			}
			for i := 0; i < rounds; i++ {
				if _, err := sc.Decide(ctx, sessionWorld(4, 3, i)); err != nil {
					errs <- fmt.Errorf("tenant %d step %d decide: %w", g, i, err)
					return
				}
				if err := sc.Feedback(ctx, FeedbackRequest{Step: i, StepCost: 0.4}); err != nil {
					errs <- fmt.Errorf("tenant %d step %d feedback: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every tenant completed all rounds despite eviction churn.
	c := NewClient(ts.URL, nil)
	for g := 0; g < tenants; g++ {
		stats, err := c.Session(fmt.Sprintf("tenant-%d", g)).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Decisions != rounds {
			t.Errorf("tenant %d made %d decisions, want %d", g, stats.Decisions, rounds)
		}
	}
	if got := svc.mgr.cEvict.Value(); got == 0 {
		t.Error("8 tenants under a cap of 3 never triggered an eviction")
	}
	if got := svc.mgr.cRestore.Value(); got == 0 {
		t.Error("eviction churn never triggered a lazy restore")
	}
}

// TestAdmissionGateSheds429 verifies the bounded-concurrency gate: with
// every slot taken, decide/feedback answer 429 + Retry-After in the JSON
// envelope; with a slot free they proceed.
func TestAdmissionGateSheds429(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Occupy both slots as if two decides were in flight.
	rel1 := svc.gate.tryAcquire(1)
	rel2 := svc.gate.tryAcquire(1)
	if rel1 == nil || rel2 == nil {
		t.Fatal("idle gate refused admission")
	}

	resp := postJSON(t, ts.URL+"/v2/sessions/default/decide", testWorld(4, 3, false))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full gate answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 body is not the JSON envelope: %v %+v", err, e)
	}
	if got := svc.throttled.Value(); got != 1 {
		t.Fatalf("throttle counter = %d, want 1", got)
	}

	// Free a slot; the same request now succeeds.
	rel1()
	resp = postJSON(t, ts.URL+"/v2/sessions/default/decide", testWorld(4, 3, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("freed gate answered %d, want 200", resp.StatusCode)
	}
	rel2()
}

// TestSessionPerMetricsEndpoint: each session exposes its own learner
// gauges, isolated from the service registry.
func TestSessionPerMetricsEndpoint(t *testing.T) {
	_, ts := newSessionService(t, 0)
	ctx := context.Background()
	sc := NewClient(ts.URL, nil).Session("m")
	if _, err := sc.Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Decide(ctx, sessionWorld(4, 3, 0)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v2/sessions/m/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session metrics status %d", resp.StatusCode)
	}
	if !bytes.Contains(raw, []byte("megh_decide_seconds_count 1")) {
		t.Fatalf("session metrics missing its decide histogram:\n%s", raw)
	}
}

// TestDefaultSessionReserved: the session the service config sizes cannot
// be created or deleted through /v2, but is visible and usable there.
func TestDefaultSessionReserved(t *testing.T) {
	_, ts := newSessionService(t, 0)
	ctx := context.Background()
	def := NewClient(ts.URL, nil).Session(DefaultSessionID)

	if _, err := def.Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3}); err == nil {
		t.Fatal("PUT /v2/sessions/default must be refused")
	}
	if err := def.Delete(ctx); err == nil {
		t.Fatal("DELETE /v2/sessions/default must be refused")
	}
	info, err := def.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Pinned || !info.Live {
		t.Fatalf("default session info %+v", info)
	}
	// A decide through the view reaches the config's learner.
	if _, err := def.Decide(ctx, testWorld(4, 3, false)); err != nil {
		t.Fatal(err)
	}
	stats, err := def.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Decisions != 1 {
		t.Fatalf("default session stats missed the decide: %+v", stats)
	}
}

// TestCheckpointAllPersistsResidentSessions: the periodic/shutdown sweep
// writes one checkpoint per resident session (the pinned default session
// included) and leaves the files where per-session restore expects them.
func TestCheckpointAllPersistsResidentSessions(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	for _, id := range []string{"tenant-a", "tenant-b"} {
		sc := c.Session(id)
		if sc.ID() != id {
			t.Fatalf("session client ID = %q, want %q", sc.ID(), id)
		}
		if _, err := sc.Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Decide(ctx, testWorld(4, 3, true)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := svc.CheckpointAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // default + tenant-a + tenant-b
		t.Fatalf("checkpointed %d sessions, want 3", n)
	}
	for _, name := range []string{"tenant-a.ckpt", "tenant-b.ckpt"} {
		if _, err := os.Stat(filepath.Join(svc.cfg.CheckpointDir, name)); err != nil {
			t.Fatalf("missing checkpoint after CheckpointAll: %v", err)
		}
	}
	// A single-session checkpoint reports the default session's file.
	resp, err := c.Session(DefaultSessionID).Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Path == "" || resp.Bytes <= 0 {
		t.Fatalf("default-session checkpoint response %+v", resp)
	}
	// A session view also wraps into the sim policy adapter.
	if got := NewRemoteSessionPolicy(c.Session("tenant-a")).Name(); got != "Megh(remote:tenant-a)" {
		t.Fatalf("remote session policy name %q", got)
	}
}
