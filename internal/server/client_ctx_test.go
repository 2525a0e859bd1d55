package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientContextCancelsStalledRequest: a server that never answers
// must not hang a caller that set a deadline — the request returns as soon
// as the context expires, carrying the deadline error.
func TestClientContextCancelsStalledRequest(t *testing.T) {
	// The handler holds the request open until the client gives up. The
	// server cannot see the disconnect itself (the request body is never
	// read, so there is no background read to fail), so the test also
	// closes `done` in cleanup — before stall.Close, since cleanups run
	// LIFO — to let the handler return and Close drain the connection.
	done := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-done:
		}
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(done) })

	def := NewClient(stall.URL, nil).Session(DefaultSessionID)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := def.Stats(ctx)
	if err == nil {
		t.Fatal("stalled request must surface an error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error should carry the deadline cause: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s — the client sat through the stall", elapsed)
	}
}

// TestClientContextCancelsBackoff: cancellation during the retry backoff
// must cut the sleep short, not sit out the full exponential schedule.
func TestClientContextCancelsBackoff(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(3, time.Hour) // backoff far beyond the test timeout
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := c.Session(DefaultSessionID).Stats(ctx)
	if err == nil {
		t.Fatal("cancelled retry loop must surface an error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error should carry the deadline cause: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored cancellation, took %s", elapsed)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1 (cancelled before any retry)", calls.Load())
	}
}

// TestClientRetries429FromAdmissionGate: a 429 shed by the admission gate
// is transient by construction — the client must back off and retry it
// like a 5xx, not surface it as a caller error.
func TestClientRetries429FromAdmissionGate(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	real := svc.Handler()
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"throttled"}`, http.StatusTooManyRequests)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c := NewClient(flaky.URL, nil)
	c.SetRetryPolicy(3, time.Millisecond)
	if _, err := c.Session(DefaultSessionID).Decide(context.Background(), testWorld(4, 3, false)); err != nil {
		t.Fatalf("two 429s within the retry budget must not surface: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", calls.Load())
	}
}

// TestSessionClientContext: the session-scoped view threads its context
// through the same transport, so a session decide obeys deadlines too.
func TestSessionClientContext(t *testing.T) {
	done := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-done:
		}
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(done) })

	sc := NewClient(stall.URL, nil).Session("t")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sc.Decide(ctx, testWorld(4, 3, false)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("session decide should carry the deadline cause: %v", err)
	}
}
