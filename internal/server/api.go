// Package server exposes the Megh learner as a long-running,
// multi-tenant scheduling service. Each named session is one data
// center's "global resource manager" (paper §3.1) — its own learner, its
// own MDP instance, its own tracer ring and metrics — so one process
// serves many independent data centers concurrently. VMMs (or a
// monitoring pipeline) POST utilization snapshots; the service answers
// with live-migration decisions, learns from posted cost feedback, and
// checkpoints each session's Q-table to disk so restarts lose nothing.
// Under a configured max-sessions cap, idle learners are checkpointed and
// evicted from memory LRU-first, then restored lazily on their next
// touch.
//
// API (JSON over HTTP), the session surface:
//
//	GET    /v2/sessions                   → SessionListResponse
//	PUT    /v2/sessions/{id}              SessionSpec → SessionInfo (201 created / 200 idempotent)
//	GET    /v2/sessions/{id}              → SessionInfo (never restores an evicted learner)
//	DELETE /v2/sessions/{id}              → 204 (removes the checkpoint file too)
//	POST   /v2/sessions/{id}/decide       StateRequest → DecideResponse
//	POST   /v2/sessions/{id}/decide/batch BatchDecideRequest → BatchDecideResponse
//	POST   /v2/sessions/{id}/feedback     FeedbackRequest → 204
//	GET    /v2/sessions/{id}/stats        → SessionStatsResponse
//	POST   /v2/sessions/{id}/checkpoint   → CheckpointResponse
//	GET    /v2/sessions/{id}/trace/tail   → TraceTailResponse
//	GET    /v2/sessions/{id}/metrics      → per-session Prometheus text
//
// The reserved "default" session is sized by the service Config rather
// than a PUT, is pinned (never evicted), and checkpoints to — and restores
// from — Config.CheckpointPath (else <CheckpointDir>/default.ckpt).
//
// Operational routes:
//
//	GET  /metrics        → Prometheus text exposition (service + default session)
//	GET  /healthz        → 200 "ok"
//	GET  /debug/pprof/*  → standard net/http/pprof profiles
//
// Cluster mode (Config.Cluster) shards the /v2 sessions across several
// meghd nodes by consistent hashing: requests for sessions owned
// elsewhere are proxied one hop to the owner (X-Megh-Proxied names it),
// checkpoints replicate to the session's ring successors, and the
// elected leader rebalances sessions after membership changes. The
// cluster surface:
//
//	GET    /v2/cluster               → ClusterInfoResponse (enabled=false when unclustered)
//	GET    /v2/cluster/route/{id}    → ClusterRouteResponse (owner + replica set for an ID)
//	PUT    /v2/cluster/replicas/{id} checkpoint image → ClusterReplicaResponse (validated, atomic)
//	GET    /v2/cluster/replicas/{id} → stored image (octet-stream)
//	DELETE /v2/cluster/replicas/{id} → 204 (idempotent)
//	POST   /v2/cluster/rebalance     → ClusterRebalanceResponse (one handoff sweep)
//
// Every error response, on every route and from every layer (including
// the mux's own 404/405), is the JSON errorResponse envelope
// {"error": "..."} with a meaningful status code, and every response
// carries an X-Request-ID header — echoed from the request when the
// caller set one, generated otherwise. Decide/feedback traffic beyond the
// configured in-flight bound is refused with 429 plus Retry-After rather
// than queueing without limit.
//
// A decide snapshot travels in one of two forms (see StateRequest). The
// full form is self-contained and establishes the session's snapshot base
// — host capacities, power models and VM requested resources, kept under
// a content digest. The elided form names that digest and carries only
// what changes per interval; a digest the session does not hold answers
// 409 before the learner is touched, and the caller resends in full.
// SessionClient elides transparently. Request bodies on decide,
// decide/batch, feedback and session PUT are bounded by the session's
// size; a larger one answers 413.
package server

import (
	"encoding/json"
	"fmt"
	"math"
)

// HostState describes one physical machine in a snapshot.
type HostState struct {
	// MIPS, RAMMB, BandwidthMbps are the static capacities.
	MIPS          float64 `json:"mips"`
	RAMMB         float64 `json:"ram_mb"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	// PowerModel names the utilization→Watts curve: "g4", "g5", or
	// "linear:<idle>:<max>". Only used for reporting; decisions do not
	// need it, so it may be empty.
	PowerModel string `json:"power_model,omitempty"`
	// Failed marks an injected/observed outage.
	Failed bool `json:"failed,omitempty"`
}

// VMState describes one virtual machine in a snapshot.
type VMState struct {
	// Host is the index of the PM currently running the VM.
	Host int `json:"host"`
	// Utilization is the demanded fraction of the VM's requested MIPS.
	Utilization float64 `json:"utilization"`
	// MIPS, RAMMB, BandwidthMbps are the requested resources. An elided
	// snapshot (StateRequest.Base set) leaves all three out.
	MIPS          float64 `json:"mips,omitempty"`
	RAMMB         float64 `json:"ram_mb,omitempty"`
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
}

// StateRequest is one monitoring interval's snapshot, in one of two forms.
//
// The full form carries everything: Hosts with capacities and Failed
// flags, VMs with requested resources. It is self-contained, accepted on
// every decide route, and establishes the session's snapshot base — the
// static half of the world (host capacities and power models, VM requested
// resources), kept on the session under a content digest (see base.go).
//
// The elided form names that base by digest and leaves the static half
// out: no Hosts (failed hosts travel as FailedHosts indices) and no VM
// MIPS/RAMMB/BandwidthMbps. The service fills the gaps from the base; a
// digest the session does not hold answers 409 and the caller resends the
// full form. SessionClient does both transparently.
type StateRequest struct {
	Step int `json:"step"`
	// Base is the digest of the snapshot base an elided request relies on;
	// empty in the full form.
	Base  string      `json:"base,omitempty"`
	Hosts []HostState `json:"hosts,omitempty"`
	// FailedHosts lists the indices of failed hosts in the elided form (the
	// full form carries HostState.Failed instead).
	FailedHosts []int     `json:"failed_hosts,omitempty"`
	VMs         []VMState `json:"vms"`
}

// MigrationDecision is one ordered live migration.
type MigrationDecision struct {
	VM   int `json:"vm"`
	Dest int `json:"dest"`
}

// DecideResponse carries the decisions for the posted snapshot.
type DecideResponse struct {
	Step       int                 `json:"step"`
	Migrations []MigrationDecision `json:"migrations"`
}

// FeedbackRequest reports the realised cost of the previous interval.
type FeedbackRequest struct {
	Step     int     `json:"step"`
	StepCost float64 `json:"step_cost"`
	// Optional decomposition, informational only.
	EnergyCost   float64 `json:"energy_cost,omitempty"`
	SLACost      float64 `json:"sla_cost,omitempty"`
	ResourceCost float64 `json:"resource_cost,omitempty"`
}

// StatsResponse reports the learner's internals.
type StatsResponse struct {
	NumVMs      int     `json:"num_vms"`
	NumHosts    int     `json:"num_hosts"`
	Decisions   int     `json:"decisions"`
	QTableNNZ   int     `json:"qtable_nnz"`
	Temperature float64 `json:"temperature"`
}

// TraceTailResponse carries the newest buffered trace events, oldest
// first. Enabled is false (and Events empty) when the service runs
// without a tracer.
type TraceTailResponse struct {
	Enabled bool              `json:"enabled"`
	Events  []json.RawMessage `json:"events,omitempty"`
}

// CheckpointResponse reports where the learner state was written.
type CheckpointResponse struct {
	Path  string `json:"path"`
	Bytes int    `json:"bytes"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// Validate checks a full-form snapshot for structural problems before it
// reaches the learner. An elided snapshot is not self-contained — it is
// checked against its base by resolveBase instead.
func (r *StateRequest) Validate() error {
	if r.Base != "" || len(r.FailedHosts) != 0 {
		return fmt.Errorf("server: failed_hosts needs base, and a snapshot naming a base is checked against it, not alone")
	}
	if len(r.Hosts) == 0 {
		return fmt.Errorf("server: snapshot has no hosts")
	}
	if len(r.VMs) == 0 {
		return fmt.Errorf("server: snapshot has no VMs")
	}
	if r.Step < 0 {
		return fmt.Errorf("server: negative step %d", r.Step)
	}
	for i, h := range r.Hosts {
		if !finitePositive(h.MIPS) || !finitePositive(h.RAMMB) {
			return fmt.Errorf("server: host %d has invalid capacity", i)
		}
		if math.IsNaN(h.BandwidthMbps) || math.IsInf(h.BandwidthMbps, 0) || h.BandwidthMbps < 0 {
			return fmt.Errorf("server: host %d has invalid bandwidth %g", i, h.BandwidthMbps)
		}
	}
	for j, v := range r.VMs {
		if err := v.validateDynamic(j, len(r.Hosts)); err != nil {
			return err
		}
		if !finitePositive(v.MIPS) || !finitePositive(v.RAMMB) {
			return fmt.Errorf("server: VM %d has invalid resources", j)
		}
		if math.IsNaN(v.BandwidthMbps) || math.IsInf(v.BandwidthMbps, 0) || v.BandwidthMbps < 0 {
			return fmt.Errorf("server: VM %d has invalid bandwidth %g", j, v.BandwidthMbps)
		}
	}
	return nil
}

// validateDynamic checks the per-interval half of VM j — placement and
// utilization — which both snapshot forms carry.
func (v *VMState) validateDynamic(j, numHosts int) error {
	if v.Host < 0 || v.Host >= numHosts {
		return fmt.Errorf("server: VM %d placed on unknown host %d", j, v.Host)
	}
	// NaN fails ordered comparisons in both directions, so the range
	// check alone would wave it through — reject non-finite explicitly.
	if math.IsNaN(v.Utilization) || v.Utilization < 0 || v.Utilization > 1 {
		return fmt.Errorf("server: VM %d utilization %g out of [0,1]", j, v.Utilization)
	}
	return nil
}

// finitePositive reports whether v is a finite value > 0.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}
