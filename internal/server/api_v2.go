package server

import (
	"fmt"

	"megh/internal/core"
)

// SessionSpec sizes one tenant's data center — one independent MDP
// instance. Zero OverloadThreshold/StepSeconds inherit the service
// defaults at PUT time; the spec stored (and echoed back) is always the
// normalized one, and PUT is idempotent against it.
type SessionSpec struct {
	NumVMs            int     `json:"num_vms"`
	NumHosts          int     `json:"num_hosts"`
	OverloadThreshold float64 `json:"overload_threshold,omitempty"`
	StepSeconds       float64 `json:"step_seconds,omitempty"`
	Seed              int64   `json:"seed,omitempty"`
}

// normalized fills unset tuning fields from the service defaults.
func (sp SessionSpec) normalized(overload, stepSeconds float64) SessionSpec {
	if sp.OverloadThreshold == 0 {
		sp.OverloadThreshold = overload
	}
	if sp.StepSeconds == 0 {
		sp.StepSeconds = stepSeconds
	}
	return sp
}

// validate checks a normalized spec.
func (sp SessionSpec) validate() error {
	if sp.NumVMs <= 0 || sp.NumHosts <= 0 {
		return fmt.Errorf("session world size %d×%d must be positive", sp.NumVMs, sp.NumHosts)
	}
	if sp.OverloadThreshold < 0 || sp.OverloadThreshold > 1 {
		return fmt.Errorf("session overload threshold %g out of [0,1]", sp.OverloadThreshold)
	}
	if sp.StepSeconds < 0 {
		return fmt.Errorf("session step seconds %g negative", sp.StepSeconds)
	}
	// The learner's own limits — the world-size ceilings above all — refuse
	// the spec here, before anything is sized by it.
	return core.DefaultConfig(sp.NumVMs, sp.NumHosts, sp.Seed).Validate()
}

// maxSnapshotBytes bounds one snapshot's JSON body for a session of this
// size: 512 bytes per host and per VM — several times what encoding/json
// emits for a full-form entry, so indented or long-float bodies still fit —
// plus 4 KiB for the envelope.
func (sp SessionSpec) maxSnapshotBytes() int64 {
	return 4<<10 + 512*(int64(sp.NumHosts)+int64(sp.NumVMs))
}

// maxBatchBodyBytes is the ceiling on a decide/batch body, whatever the
// session's size: at 10 000 × 1 000 the per-item bound times MaxBatchItems
// would be 5.8 GB, which bounds nothing. 64 MiB holds a hundred full
// snapshots of that size, or a full MaxBatchItems batch once its items elide.
const maxBatchBodyBytes = 64 << 20

// maxBatchBytes bounds a decide/batch body for a session of this size:
// MaxBatchItems snapshots with feedback, capped at maxBatchBodyBytes.
func (sp SessionSpec) maxBatchBytes() int64 {
	return min(MaxBatchItems*(sp.maxSnapshotBytes()+maxSmallBodyBytes), maxBatchBodyBytes)
}

// SessionInfo describes one session in PUT/GET/list responses. Live is
// false while the session is evicted (its learner state lives in the
// per-session checkpoint file and is restored on the next decide,
// feedback, stats, or checkpoint touch).
type SessionInfo struct {
	ID        string      `json:"id"`
	Spec      SessionSpec `json:"spec"`
	Live      bool        `json:"live"`
	Pinned    bool        `json:"pinned,omitempty"`
	Decisions int         `json:"decisions"`
	LastStep  int         `json:"last_step"`
	Evictions int         `json:"evictions"`
	Restores  int         `json:"restores"`
	// SnapshotBase is the digest of the snapshot base the session holds —
	// what an elided StateRequest must name — empty before the first full
	// snapshot.
	SnapshotBase string `json:"snapshot_base,omitempty"`
}

// SessionListResponse is the GET /v2/sessions body.
type SessionListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
	Live     int           `json:"live"`
	// MaxSessions echoes the residency cap; 0 means unlimited.
	MaxSessions int `json:"max_sessions"`
}

// SessionStatsResponse extends the learner stats with session identity and
// lifecycle counters.
type SessionStatsResponse struct {
	StatsResponse
	ID        string `json:"id"`
	Live      bool   `json:"live"`
	Evictions int    `json:"evictions"`
	Restores  int    `json:"restores"`
}

// MaxBatchItems caps one POST /v2/sessions/{id}/decide/batch request. The
// bound keeps a single request's lock hold time and response size sane;
// larger workloads split into several requests (the learner's state
// threads through identically).
const MaxBatchItems = 1024

// BatchDecideItem is one observe→decide step of a batch: an optional
// feedback for the interval preceding the snapshot, then the snapshot to
// decide on — exactly what a sequential caller would POST as one feedback
// and one decide request.
type BatchDecideItem struct {
	// Feedback, when present, is observed before this item's decide.
	Feedback *FeedbackRequest `json:"feedback,omitempty"`
	State    StateRequest     `json:"state"`
}

// BatchDecideRequest is the POST /v2/sessions/{id}/decide/batch body:
// items run in order against the session's learner under one lock
// acquisition, one admission-gate slot and one request decode, and are
// decision-identical to posting them one at a time.
type BatchDecideRequest struct {
	Items []BatchDecideItem `json:"items"`
}

// BatchDecideResponse carries one DecideResponse per request item, in
// order.
type BatchDecideResponse struct {
	Results []DecideResponse `json:"results"`
}
