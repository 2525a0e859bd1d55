package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"megh/internal/obs"
)

// TestErrorEnvelopeEverywhere is the API-consistency table: every failure
// mode on every route — handler validation, the session layer, and even
// the mux's own 404/405 — must answer with the JSON errorResponse
// envelope, the right status code, and an X-Request-ID header. Plain-text
// error bodies are a regression.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// A pre-existing session for the conflict and dimension cases.
	if _, err := NewClient(ts.URL, nil).Session("seeded").
		Create(context.Background(), SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"decide bad json", "POST", "/v2/sessions/default/decide", `not json`, http.StatusBadRequest},
		{"decide empty snapshot", "POST", "/v2/sessions/default/decide", `{}`, http.StatusBadRequest},
		{"decide wrong dims", "POST", "/v2/sessions/default/decide",
			`{"step":0,"hosts":[{"mips":4000,"ram_mb":8192}],"vms":[{"host":0,"utilization":0.5,"mips":1000,"ram_mb":512}]}`,
			http.StatusBadRequest},
		{"feedback bad json", "POST", "/v2/sessions/default/feedback", `{`, http.StatusBadRequest},
		{"feedback negative cost", "POST", "/v2/sessions/default/feedback", `{"step_cost":-1}`, http.StatusBadRequest},
		{"trace tail bad n", "GET", "/v2/sessions/default/trace/tail?n=bogus", "", http.StatusBadRequest},
		{"unknown route", "GET", "/v1/nope", "", http.StatusNotFound},
		{"method mismatch", "DELETE", "/v2/sessions/default/stats", "", http.StatusMethodNotAllowed},
		{"v2 invalid session id", "PUT", "/v2/sessions/bad!id", `{"num_vms":4,"num_hosts":3}`, http.StatusBadRequest},
		{"v2 reserved id", "PUT", "/v2/sessions/default", `{"num_vms":4,"num_hosts":3}`, http.StatusConflict},
		{"v2 spec bad json", "PUT", "/v2/sessions/x1", `nope`, http.StatusBadRequest},
		{"v2 spec invalid", "PUT", "/v2/sessions/x2", `{"num_vms":0,"num_hosts":3}`, http.StatusBadRequest},
		{"v2 spec conflict", "PUT", "/v2/sessions/seeded", `{"num_vms":9,"num_hosts":3}`, http.StatusConflict},
		{"v2 get unknown", "GET", "/v2/sessions/ghost", "", http.StatusNotFound},
		{"v2 decide unknown", "POST", "/v2/sessions/ghost/decide", `{}`, http.StatusNotFound},
		{"v2 feedback unknown", "POST", "/v2/sessions/ghost/feedback", `{}`, http.StatusNotFound},
		{"v2 stats unknown", "GET", "/v2/sessions/ghost/stats", "", http.StatusNotFound},
		{"v2 checkpoint unknown", "POST", "/v2/sessions/ghost/checkpoint", ``, http.StatusNotFound},
		{"v2 trace unknown", "GET", "/v2/sessions/ghost/trace/tail", "", http.StatusNotFound},
		{"v2 delete unknown", "DELETE", "/v2/sessions/ghost", "", http.StatusNotFound},
		{"v2 delete reserved", "DELETE", "/v2/sessions/default", "", http.StatusConflict},
		{"v2 decide wrong dims", "POST", "/v2/sessions/seeded/decide",
			`{"step":0,"hosts":[{"mips":4000,"ram_mb":8192}],"vms":[{"host":0,"utilization":0.5,"mips":1000,"ram_mb":512}]}`,
			http.StatusBadRequest},
		{"v1 checkpoint handled elsewhere", "GET", "/v2/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if rid := resp.Header.Get("X-Request-ID"); rid == "" {
				t.Errorf("%s %s: no X-Request-ID header", tc.method, tc.path)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("%s %s: error content type %q, want application/json", tc.method, tc.path, ct)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Errorf("%s %s: body is not the JSON envelope: %v", tc.method, tc.path, err)
			} else if e.Error == "" {
				t.Errorf("%s %s: envelope carries no error message", tc.method, tc.path)
			}
		})
	}
}

// TestRequestIDEchoed: a caller-supplied X-Request-ID is echoed verbatim;
// absent one, the service generates a unique id per request.
func TestRequestIDEchoed(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-trace-42" {
		t.Fatalf("request id not echoed: %q", got)
	}

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("no generated X-Request-ID")
		}
		if ids[id] {
			t.Fatalf("generated id %q repeated", id)
		}
		ids[id] = true
	}
}

// TestSuccessBodiesUntouched: the envelope middleware must leave
// non-error responses alone — /healthz stays plain "ok", /metrics stays
// Prometheus text.
func TestSuccessBodiesUntouched(t *testing.T) {
	_, ts := newTestService(t, 4, 3, "")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 8)
	n, _ := resp.Body.Read(buf)
	if string(buf[:n]) != "ok" {
		t.Fatalf("healthz body %q", buf[:n])
	}
}

// TestPanicGuardKeepsAnInterceptedStatus: a handler that answers a
// plain-text error and then panics leaves with the status it chose, in the
// JSON envelope, and counts as one error; a handler that panics before
// answering leaves with a JSON 500.
func TestPanicGuardKeepsAnInterceptedStatus(t *testing.T) {
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		route string
		h     http.HandlerFunc
		want  int
		msg   string
	}{
		{"/answered", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "nope", http.StatusNotFound)
			panic("after the answer")
		}, http.StatusNotFound, "nope"},
		{"/silent", func(http.ResponseWriter, *http.Request) { panic("before any answer") },
			http.StatusInternalServerError, "internal error: before any answer"},
	} {
		rec := httptest.NewRecorder()
		svc.envelope(svc.instrument(tc.route, tc.h)).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.route, nil))
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != tc.want || e.Error != tc.msg {
			t.Errorf("%s: HTTP %d %s (%v), want %d %q", tc.route, rec.Code, rec.Body, err, tc.want, tc.msg)
		}
		errs := svc.reg.Counter("megh_http_errors_total", "HTTP responses with status >= 400, by route.",
			obs.Labels{"route": tc.route})
		if got := errs.Value(); got != 1 {
			t.Errorf("%s: megh_http_errors_total = %d, want 1", tc.route, got)
		}
	}
}
