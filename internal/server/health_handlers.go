package server

import (
	"net/http"
	"sort"

	"megh/internal/health"
	"megh/internal/obs"
)

// healthSession serves GET /v2/sessions/{id}/health. It reads the
// tracker's cached telemetry under the session lock and deliberately
// bypasses withLearner: health checks on an evicted session must not
// force a lazy restore (a monitoring loop would otherwise defeat the
// max-sessions cap by thawing everything it looks at).
func (s *Service) healthSession(w http.ResponseWriter, _ *http.Request, sess *session) {
	sess.mu.Lock()
	resp := SessionHealthResponse{ID: sess.id, Pinned: sess.pinned, State: "evicted"}
	if sess.learner != nil {
		resp.State = "live"
	}
	resp.Health = sess.health.Snapshot()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleFleetHealth serves GET /v2/health: the fleet-wide roll-up. ?n=
// bounds the worst-N list (default 5). Like the per-session endpoint it
// never restores evicted learners.
func (s *Service) handleFleetHealth(w http.ResponseWriter, r *http.Request) {
	n, ok := queryN(w, r, 5)
	if !ok {
		return
	}

	type row struct {
		FleetSessionHealth
		sev health.Verdict
	}
	var rows []row
	live := 0
	s.mgr.forEachSession(func(sess *session) {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if sess.deleted {
			return
		}
		v, reason := sess.health.Verdict()
		fr := row{sev: v, FleetSessionHealth: FleetSessionHealth{
			ID: sess.id, State: "evicted", Verdict: v.String(), Reason: reason,
			Decides: sess.health.Decides(),
		}}
		if sess.learner != nil {
			fr.State = "live"
			live++
		}
		rows = append(rows, fr)
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sev != rows[j].sev {
			return rows[i].sev > rows[j].sev
		}
		if rows[i].Decides != rows[j].Decides {
			return rows[i].Decides > rows[j].Decides
		}
		return rows[i].ID < rows[j].ID
	})

	resp := FleetHealthResponse{
		SessionsDefined: len(rows),
		SessionsLive:    live,
		Verdicts: map[string]int{
			health.Healthy.String():   0,
			health.Degraded.String():  0,
			health.Diverging.String(): 0,
		},
		Worst: []FleetSessionHealth{},
	}
	for _, fr := range rows {
		resp.Verdicts[fr.Verdict]++
	}
	if n > len(rows) {
		n = len(rows)
	}
	for _, fr := range rows[:n] {
		resp.Worst = append(resp.Worst, fr.FleetSessionHealth)
	}
	if s.slo != nil {
		st := s.slo.Status()
		resp.SLO = &st
	}
	resp.DecideExemplars = s.decideExemplars()
	writeJSON(w, http.StatusOK, resp)
}

// decideExemplars collects the latest exemplar per latency bucket across
// the decide-route histograms, sorted by bucket bound then label.
func (s *Service) decideExemplars() []obs.Exemplar {
	hists := s.decideLats.Load()
	if hists == nil {
		return nil
	}
	var out []obs.Exemplar
	for _, h := range *hists {
		out = append(out, h.Exemplars()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bucket != out[j].Bucket {
			return out[i].Bucket < out[j].Bucket
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// handleMetrics serves the global GET /metrics: the service registry
// (HTTP middleware metrics, the default session's learner and health
// instruments, session-manager gauges, SLO gauges refreshed just before
// the write) followed by the fleet re-export of per-session registries
// under the megh_session_* namespace with a bounded session label
// (MetricsSessionTopK busiest sessions by name, the rest as "other").
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.slo.Publish(s.reg)
	if s.cluster != nil {
		s.cluster.publishGauges()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		return
	}
	topK := s.cfg.MetricsSessionTopK
	if topK == 0 {
		topK = DefMetricsSessionTopK
	}
	_ = obs.WriteSnapshots(w, s.mgr.fleetSnapshots(topK))
}
