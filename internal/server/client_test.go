package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"megh/internal/obs"
	"megh/internal/sim"
	"megh/internal/workload"
)

func TestClientEndpoints(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	c := NewClient(ts.URL, nil)
	def := c.Session(DefaultSessionID)
	ctx := context.Background()

	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	out, err := def.Decide(ctx, testWorld(4, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	if out.Step != 0 {
		t.Fatalf("decide step %d", out.Step)
	}
	if err := def.Feedback(ctx, FeedbackRequest{Step: 0, StepCost: 0.3}); err != nil {
		t.Fatal(err)
	}
	stats, err := def.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Decisions != 1 {
		t.Fatalf("stats decisions = %d", stats.Decisions)
	}
}

func TestClientSurfacesServerErrors(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	def := NewClient(ts.URL, nil).Session(DefaultSessionID)
	ctx := context.Background()
	if _, err := def.Decide(ctx, StateRequest{}); err == nil {
		t.Fatal("empty snapshot should surface the 400")
	} else if !strings.Contains(err.Error(), "no hosts") {
		t.Fatalf("error lost the server's message: %v", err)
	}
	if _, err := def.Checkpoint(ctx); err == nil {
		t.Fatal("checkpoint without a path should surface the 412")
	}
}

func TestClientTransportFailure(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil) // nothing listens on port 1
	if err := c.Health(); err == nil {
		t.Fatal("expected a transport error")
	}
	if _, err := c.Session(DefaultSessionID).Stats(context.Background()); err == nil {
		t.Fatal("expected a transport error")
	}
}

// TestClientHealthReusesConnection: Health reads the answer to its end, so
// the transport keeps the connection for the next call instead of dialling
// one per probe.
func TestClientHealthReusesConnection(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	for i := 0; i < 5; i++ {
		if err := c.Health(); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("5 health checks opened %d connections, want 1", n)
	}
}

// TestLoopbackSimulation drives the full simulator against the service
// over real HTTP: the "hardware-in-the-loop" configuration. The remote
// policy must behave like an in-process Megh — feasible migrations,
// overload response, learner state accumulating server-side.
func TestLoopbackSimulation(t *testing.T) {
	const nVMs, nHosts, steps = 16, 10, 60
	svc, ts := newTestService(t, nVMs, nHosts, "")

	traces, err := workload.GeneratePlanetLab(func() workload.PlanetLabConfig {
		c := workload.DefaultPlanetLabConfig(5)
		c.Steps = steps
		return c
	}(), nVMs)
	if err != nil {
		t.Fatal(err)
	}
	hosts, _ := sim.PlanetLabHosts(nHosts)
	vms, _ := sim.PlanetLabVMs(nVMs, 3)
	simulator, err := sim.New(sim.Config{Hosts: hosts, VMs: vms, Traces: traces, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	policy := NewRemoteSessionPolicy(NewClient(ts.URL, nil).Session(DefaultSessionID))
	res, err := simulator.Run(policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.Err(); err != nil {
		t.Fatalf("transport failure during loopback run: %v", err)
	}
	for _, m := range res.Steps {
		if m.Rejected != 0 {
			t.Fatalf("step %d: remote policy proposed %d infeasible migrations",
				m.Step, m.Rejected)
		}
	}
	svc.def.mu.Lock()
	decisions := svc.def.decisions
	nnz := svc.def.learner.QTableNNZ()
	svc.def.mu.Unlock()
	if decisions != steps {
		t.Fatalf("service made %d decisions, want %d", decisions, steps)
	}
	if nnz == 0 {
		t.Fatal("server-side learner never materialised Q-table entries")
	}
}

func TestRemotePolicyDegradesOnDeadServer(t *testing.T) {
	ts := httptest.NewServer(nil)
	ts.Close() // dead immediately
	policy := NewRemoteSessionPolicy(NewClient(ts.URL, nil).Session(DefaultSessionID))

	traces := []workload.Trace{{0.3}, {0.3}}
	hosts, _ := sim.PlanetLabHosts(2)
	vms, _ := sim.PlanetLabVMs(2, 1)
	simulator, err := sim.New(sim.Config{Hosts: hosts, VMs: vms, Traces: traces, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run(policy)
	if err != nil {
		t.Fatal(err)
	}
	if policy.Err() == nil {
		t.Fatal("dead server should surface a transport error")
	}
	if res.TotalMigrations() != 0 {
		t.Fatal("degraded policy must no-op, not invent migrations")
	}
}

// TestClientRetriesTransientServerErrors is the regression test for the
// first-error poisoning bug: a 503 blip must be retried with backoff, not
// surfaced, and the retry counter must record the attempts.
func TestClientRetriesTransientServerErrors(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	real := svc.Handler()
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "temporarily unavailable", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c := NewClient(flaky.URL, nil)
	c.SetRetryPolicy(3, time.Millisecond)
	reg := obs.NewRegistry()
	c.Instrument(reg)

	if _, err := c.Session(DefaultSessionID).Decide(context.Background(), testWorld(4, 3, false)); err != nil {
		t.Fatalf("two 503s within the retry budget must not surface: %v", err)
	}
	if got := reg.Counter("megh_client_retries_total", "", nil).Value(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", calls.Load())
	}
}

// TestClientDoesNotRetryClientErrors: 4xx responses are deterministic
// request rejections — retrying them would only triple the latency.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(3, time.Millisecond)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	if _, err := c.ListSessions(context.Background()); err == nil {
		t.Fatal("400 must surface an error")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retries on 4xx)", calls.Load())
	}
	if got := reg.Counter("megh_client_retries_total", "", nil).Value(); got != 0 {
		t.Fatalf("retry counter = %d, want 0", got)
	}
}

// TestClientExhaustsRetriesThenFails: with every attempt failing, the error
// surfaces only after the full budget is spent.
func TestClientExhaustsRetriesThenFails(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(3, time.Millisecond)
	if _, err := c.ListSessions(context.Background()); err == nil {
		t.Fatal("exhausted retries must surface an error")
	} else if !strings.Contains(err.Error(), "502") {
		t.Fatalf("error should carry the final status: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want the full budget of 3", calls.Load())
	}
}

// TestRemotePolicySurvivesTransientBlip is the poisoning regression at the
// policy level: a single 503 mid-run must not latch RemotePolicy into
// permanent no-op — pre-fix, the rest of the run silently returned nil.
func TestRemotePolicySurvivesTransientBlip(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	real := svc.Handler()
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 2 { // blip on the second request only
			http.Error(w, "blip", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c := NewClient(flaky.URL, nil)
	c.SetRetryPolicy(3, time.Millisecond)
	policy := NewRemoteSessionPolicy(c.Session(DefaultSessionID))

	traces := make([]workload.Trace, 4)
	for i := range traces {
		tr := make(workload.Trace, 10)
		for k := range tr {
			tr[k] = 0.3
		}
		traces[i] = tr
	}
	hosts, _ := sim.PlanetLabHosts(3)
	vms, _ := sim.PlanetLabVMs(4, 1)
	simulator, err := sim.New(sim.Config{Hosts: hosts, VMs: vms, Traces: traces, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(policy); err != nil {
		t.Fatal(err)
	}
	if err := policy.Err(); err != nil {
		t.Fatalf("policy poisoned by a transient blip: %v", err)
	}
	svc.def.mu.Lock()
	decisions := svc.def.decisions
	svc.def.mu.Unlock()
	if decisions != 10 {
		t.Fatalf("service made %d decisions, want all 10 (policy went no-op mid-run)", decisions)
	}
}
