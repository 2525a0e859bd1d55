package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"megh/internal/obs"
	"megh/internal/server"
)

func TestRenderFleetFrame(t *testing.T) {
	resp := &server.FleetHealthResponse{
		SessionsDefined: 3,
		SessionsLive:    2,
		Verdicts:        map[string]int{"healthy": 1, "degraded": 1, "diverging": 1},
		Worst: []server.FleetSessionHealth{
			{ID: "dc-eu-1", State: "live", Verdict: "diverging",
				Reason: "bellman residual ewma 12.3 above divergence threshold", Decides: 410},
			{ID: "dc-us-2", State: "evicted", Verdict: "degraded",
				Reason: "nnz growth 60 per decide >= 40", Decides: 12},
			{ID: "default", State: "live", Verdict: "healthy", Decides: 9000},
		},
		SLO: &obs.SLOStatus{
			Name: "decide", Objective: 0.1, Target: 0.999,
			Windows: []obs.SLOWindowStatus{
				{Window: "5m", Seconds: 300, Good: 1190, Total: 1200, BadFraction: 1.0 / 120, BurnRate: 8.33},
				{Window: "1h", Seconds: 3600, Good: 14000, Total: 14040, BadFraction: 40.0 / 14040, BurnRate: 2.85},
			},
		},
		DecideExemplars: []obs.Exemplar{
			{Bucket: 0.1, Value: 0.093, Label: "req-slow-1"},
			{Bucket: math.Inf(1), Value: 1.7, Label: "req-awful-2"},
		},
	}
	var buf bytes.Buffer
	renderFleet(&buf, "http://meghd:8080", resp)
	out := buf.String()

	for _, want := range []string{
		"megh fleet health — http://meghd:8080",
		"sessions: 3 defined, 2 live",
		"1 healthy / 1 degraded / 1 diverging",
		"slo decide: latency < 100ms, target 99.900%",
		"5m burn 8.33 (1190/1200 good)",
		"1h burn 2.85 (14000/14040 good)",
		"! dc-eu-1",
		"diverging",
		"bellman residual ewma 12.3 above divergence threshold",
		"~ dc-us-2",
		"evicted",
		"req=req-slow-1",
		"req=req-awful-2",
		"≤+Inf",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Severity ordering: the diverging session renders above the healthy one.
	if strings.Index(out, "dc-eu-1") > strings.Index(out, "default") {
		t.Errorf("diverging session not first in worst-N:\n%s", out)
	}
	// No fast burn flagged: only one window is past the threshold.
	if strings.Contains(out, "FAST BURN") {
		t.Errorf("fast burn flagged without both windows burning:\n%s", out)
	}
}

func TestRenderFleetFastBurnAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	renderFleet(&buf, "x", &server.FleetHealthResponse{
		Verdicts: map[string]int{},
		SLO:      &obs.SLOStatus{Name: "decide", Objective: 0.1, Target: 0.999, FastBurn: true, Windows: []obs.SLOWindowStatus{{Window: "5m"}}},
	})
	out := buf.String()
	if !strings.Contains(out, "** FAST BURN **") {
		t.Errorf("fast-burn flag missing:\n%s", out)
	}
	if !strings.Contains(out, "(no sessions)") {
		t.Errorf("empty worst-N placeholder missing:\n%s", out)
	}
}

// testWorld builds a 4×3 snapshot with one overloaded host so the learner
// always has migration candidates.
func testWorld(step int) server.StateRequest {
	req := server.StateRequest{Step: step}
	for i := 0; i < 3; i++ {
		req.Hosts = append(req.Hosts, server.HostState{
			MIPS: 4000, RAMMB: 8192, BandwidthMbps: 1000, PowerModel: "g4",
		})
	}
	for j := 0; j < 4; j++ {
		util, host := 0.2+0.05*float64((step+j)%8), j%3
		if j == 0 {
			util = 1.0
		}
		if j == 1 {
			host = 0
		}
		req.VMs = append(req.VMs, server.VMState{
			Host: host, Utilization: util,
			MIPS: 2500, RAMMB: 1024, BandwidthMbps: 100,
		})
	}
	return req
}

func post(t *testing.T, url string, body any, wantCode int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: got %d, want %d", url, resp.StatusCode, wantCode)
	}
}

// TestMeghtopShowsDivergingSession is the end-to-end check: drive a real
// service until one session's absurd feedback flips its verdict to
// diverging, then poll it exactly as meghtop does and assert the rendered
// worst-N frame surfaces the sick session.
func TestMeghtopShowsDivergingSession(t *testing.T) {
	svc, err := server.New(server.Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, id := range []string{"ok", "sick"} {
		raw, _ := json.Marshal(server.SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 5})
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/sessions/"+id, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("creating %q: %d", id, resp.StatusCode)
		}
	}
	costs := map[string]float64{"ok": 0.5, "sick": 5e12}
	for _, id := range []string{"ok", "sick"} {
		for step := 0; step < 4; step++ {
			post(t, ts.URL+"/v2/sessions/"+id+"/decide", testWorld(step), http.StatusOK)
			post(t, ts.URL+"/v2/sessions/"+id+"/feedback",
				server.FeedbackRequest{Step: step, StepCost: costs[id]}, http.StatusNoContent)
		}
	}

	fleet, err := fetchFleet(http.DefaultClient, ts.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	renderFleet(&buf, ts.URL, fleet)
	out := buf.String()

	if !strings.Contains(out, "! sick") {
		t.Errorf("diverging session not marked in worst-N:\n%s", out)
	}
	sickLine := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "sick") {
			sickLine = line
			break
		}
	}
	if !strings.Contains(sickLine, "diverging") {
		t.Errorf("sick session row lacks diverging verdict: %q\n%s", sickLine, out)
	}
	if !strings.Contains(out, "1 healthy / 0 degraded / 1 diverging") &&
		!strings.Contains(out, "2 healthy / 0 degraded / 1 diverging") {
		t.Errorf("verdict histogram missing the diverging count:\n%s", out)
	}
	// The sick session heads the table — severity beats decide volume.
	if strings.Index(out, "sick") > strings.Index(out, "ok ") {
		t.Errorf("worst-N not severity-ordered:\n%s", out)
	}
}
