package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"megh/internal/core"
	"megh/internal/obs"
	"megh/internal/sim"
	"megh/internal/trace"
)

// Config sizes the service.
type Config struct {
	// NumVMs and NumHosts fix the default session's projected space; every
	// snapshot posted to session "default" must match.
	NumVMs, NumHosts int
	// OverloadThreshold is β; 0 means 0.70. Sessions whose spec leaves the
	// threshold unset inherit it.
	OverloadThreshold float64
	// StepSeconds is the monitoring interval τ; 0 means 300. Inherited by
	// sessions the same way.
	StepSeconds float64
	// CheckpointPath is where the default session checkpoints, and where a
	// fresh server restores it from if the file exists; empty with
	// CheckpointDir set, it is <dir>/default.ckpt.
	CheckpointPath string
	// CheckpointDir holds the per-session checkpoint files
	// (<dir>/<id>.ckpt). Empty disables session persistence — and with it
	// eviction, since evicting without a checkpoint would lose learning.
	CheckpointDir string
	// MaxSessions caps how many learners stay resident in memory; beyond
	// it the least-recently-used evictable session is checkpointed and
	// dropped, to be restored lazily on its next touch. 0 means unlimited.
	// The cap is a residency target: pinned (default) and just-touched
	// sessions are never evicted, so residency may transiently exceed it.
	MaxSessions int
	// MaxInFlight bounds concurrent decide/feedback work across all
	// sessions, weighted by batch item count (a K-item batch holds K
	// slots); excess requests are refused with 429 and a Retry-After
	// header instead of queueing without bound. 0 means unlimited.
	MaxInFlight int
	// Seed drives the default learner configuration; sessions carry their
	// own seed in their spec.
	Seed int64
	// Tracer optionally records one structured event per decision and per
	// feedback post on the default session. The in-memory tail is served at
	// GET /v2/sessions/default/trace/tail. Nil disables default-session
	// tracing (the endpoint then reports enabled=false). Other sessions each
	// get their own ring of trace.DefaultRingSize events regardless.
	Tracer *trace.Tracer
	// SLODecideP99 is the decide-latency objective in seconds backing the
	// burn-rate SLO served on /v2/health and /metrics: a decide is "good"
	// when it completes within the objective, and the SLO tracks the bad
	// fraction against a 1% error budget over 5m/1h windows. 0 means
	// DefSLODecideP99; negative disables SLO tracking.
	SLODecideP99 float64
	// MetricsSessionTopK bounds the session-label cardinality of the fleet
	// block on GET /metrics: the K busiest sessions (by decisions) keep
	// their own session label, the rest fold into session="other". 0 means
	// DefMetricsSessionTopK; negative means unbounded.
	MetricsSessionTopK int
	// Cluster, when set, makes this service one node of a meghd cluster:
	// consistent-hash session routing, checkpoint replication to ring
	// successors, and replica-promotion failover. Requires CheckpointDir.
	Cluster *ClusterConfig
}

// DefSLODecideP99 is the default decide-latency objective in seconds.
const DefSLODecideP99 = 0.1

// DefMetricsSessionTopK is the default session-label cardinality bound on
// the fleet /metrics block.
const DefMetricsSessionTopK = 10

// Service is the HTTP scheduling service: a registry of named sessions,
// each an independent data center with its own learner, tracer ring,
// metrics, and lock (decides for different tenants never contend on one
// mutex). The reserved "default" session is sized by the Config itself;
// every other session is created through /v2. Safe for concurrent use.
type Service struct {
	cfg Config
	reg *obs.Registry
	mgr *sessionManager
	def *session

	// gate bounds concurrent decide/feedback work, weighted by batch item
	// count (nil = unlimited).
	gate      *admitGate
	throttled *obs.Counter

	// elided counts decide requests that relied on a snapshot base;
	// baseConflicts counts those refused with 409 because the session did
	// not hold the base they named.
	elided        *obs.Counter
	baseConflicts *obs.Counter
	// decodeFallback counts decide and decide/batch bodies that were JSON,
	// not binary, and went through encoding/json.
	decodeFallback *obs.Counter

	// cluster is the cluster-mode runtime (nil = single-node): ring
	// ownership, request proxying, checkpoint replication, rebalancing.
	cluster *clusterRuntime

	// slo tracks the decide-latency objective (nil = disabled; every
	// method on a nil SLO is a no-op).
	slo *obs.SLO
	// decideLats holds the decide-route latency histograms, set by
	// Handler, so the fleet health endpoint can surface their exemplars.
	decideLats atomic.Pointer[[]*obs.Histogram]

	// reqEpoch/reqSeq generate X-Request-ID values unique across restarts.
	reqEpoch int64
	reqSeq   atomic.Uint64

	routes atomic.Pointer[[]string]
}

// New builds the service, restoring the default session's learner from its
// checkpoint — CheckpointPath, else <CheckpointDir>/default.ckpt — when an
// image exists there. A checkpoint whose world size differs from the
// configuration is refused with an error rather than restored (a stale file
// would otherwise panic the decide path on the first snapshot).
func New(cfg Config) (*Service, error) {
	if cfg.NumVMs <= 0 || cfg.NumHosts <= 0 {
		return nil, fmt.Errorf("server: world size %d×%d must be positive", cfg.NumVMs, cfg.NumHosts)
	}
	if cfg.OverloadThreshold == 0 {
		cfg.OverloadThreshold = 0.70
	}
	if cfg.OverloadThreshold < 0 || cfg.OverloadThreshold > 1 {
		return nil, fmt.Errorf("server: overload threshold %g out of [0,1]", cfg.OverloadThreshold)
	}
	if cfg.StepSeconds == 0 {
		cfg.StepSeconds = 300
	}
	if cfg.StepSeconds < 0 {
		return nil, fmt.Errorf("server: negative step seconds %g", cfg.StepSeconds)
	}
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("server: negative max sessions %d", cfg.MaxSessions)
	}
	if cfg.MaxSessions > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("server: max sessions %d needs a checkpoint dir to evict into", cfg.MaxSessions)
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating checkpoint dir: %w", err)
		}
	}

	reg := obs.NewRegistry()
	s := &Service{cfg: cfg, reg: reg, reqEpoch: time.Now().UnixNano()}
	s.mgr = newSessionManager(cfg, reg)
	if cfg.Cluster != nil {
		cr, err := newClusterRuntime(s, cfg)
		if err != nil {
			return nil, err
		}
		s.cluster = cr
		// Every successful checkpoint write replicates to the session's
		// ring successors, and a missing primary checkpoint falls back to
		// a replicated image — the failover path.
		s.mgr.onCheckpoint = s.cluster.replicate
		s.mgr.onDelete = s.cluster.dropReplicas
		s.mgr.promoteReplica = s.cluster.promoteReplica
	}
	s.throttled = reg.Counter("megh_http_throttled_total",
		"Decide/feedback requests refused with 429 by the admission gate.", nil)
	if cfg.MaxInFlight > 0 {
		s.gate = &admitGate{capacity: cfg.MaxInFlight}
	}
	s.elided = reg.Counter("megh_snapshot_elided_requests_total",
		"Decide and decide/batch requests that left static fields to the session's snapshot base.", nil)
	s.decodeFallback = reg.Counter("megh_snapshot_decode_fallback_total",
		"Decide and decide/batch requests whose body was JSON, decoded by encoding/json rather than the binary elided codec.", nil)
	s.baseConflicts = reg.Counter("megh_snapshot_base_conflicts_total",
		"Elided decide requests refused with 409 because the session did not hold the base they named.", nil)
	if cfg.SLODecideP99 >= 0 {
		objective := cfg.SLODecideP99
		if objective == 0 {
			objective = DefSLODecideP99
		}
		s.slo = obs.NewSLO(obs.SLOConfig{Name: "decide", Objective: objective})
	}

	// The default session is the Config's own: pinned (never evicted),
	// instrumented on the service registry, traced by the shared tracer, and
	// checkpointing to CheckpointPath, else <CheckpointDir>/default.ckpt —
	// restored from that same file when an image is there.
	ckptPath := cfg.CheckpointPath
	if ckptPath == "" {
		ckptPath = s.mgr.checkpointPath(DefaultSessionID)
	}
	def := &session{
		id: DefaultSessionID,
		spec: SessionSpec{
			NumVMs: cfg.NumVMs, NumHosts: cfg.NumHosts,
			OverloadThreshold: cfg.OverloadThreshold,
			StepSeconds:       cfg.StepSeconds,
			Seed:              cfg.Seed,
		},
		pinned:   true,
		tracer:   cfg.Tracer,
		reg:      reg,
		ckptPath: ckptPath,
	}
	err := s.mgr.revive(def, ckptPath != "")
	if errors.Is(err, fs.ErrNotExist) {
		err = s.mgr.revive(def, false)
	}
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	def.health = newTracker(def.learner, cfg.Seed, reg)
	sh := s.mgr.shardFor(def.id)
	sh.mu.Lock()
	sh.m[def.id] = def
	sh.mu.Unlock()
	s.mgr.touch(def)
	s.mgr.gDefined.Add(1)
	s.mgr.noteResident(1)
	s.def = def
	return s, nil
}

// Metrics returns the service's metrics registry, so callers (meghd, the
// HTTP client) can register their own instruments alongside the service's.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Handler returns the service's HTTP routes. Every route is wrapped in
// the metrics middleware (request/error counters, in-flight gauge,
// latency histogram) and a panic guard; the whole mux sits behind the
// envelope middleware, which stamps an X-Request-ID on every response
// (echoing the caller's, generating one otherwise) and rewrites any
// non-JSON error — including the mux's own 404/405 — into the uniform
// JSON errorResponse body.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	var patterns []string
	handle := func(pattern string, h http.HandlerFunc) {
		patterns = append(patterns, pattern)
		// The metrics label uses ":id" for the wildcard — brace-free, so it
		// stays friendly to strict Prometheus exposition parsers.
		route := pattern[strings.Index(pattern, " ")+1:]
		route = strings.ReplaceAll(route, "{id}", ":id")
		mux.HandleFunc(pattern, s.instrument(route, h))
	}

	// /v2: the multi-tenant session surface. Every {id}-scoped route goes
	// through routeSession, which — in cluster mode — proxies requests
	// for sessions owned by another node to that node (no-op wrapper when
	// unclustered).
	handle("GET /v2/sessions", s.handleSessionList)
	handle("PUT /v2/sessions/{id}", s.routeSession(s.handleSessionPut))
	handle("GET /v2/sessions/{id}", s.routeSession(s.handleSessionGet))
	handle("DELETE /v2/sessions/{id}", s.routeSession(s.handleSessionDelete))
	handle("POST /v2/sessions/{id}/decide", s.routeSession(s.withSession(s.decideSession)))
	handle("POST /v2/sessions/{id}/decide/batch", s.routeSession(s.withSession(s.decideBatchSession)))
	handle("POST /v2/sessions/{id}/feedback", s.routeSession(s.withSession(s.feedbackSession)))
	handle("POST /v2/sessions/{id}/checkpoint", s.routeSession(s.withSession(
		func(w http.ResponseWriter, _ *http.Request, sess *session) {
			s.checkpointHandler(w, sess)
		})))
	handle("GET /v2/sessions/{id}/stats", s.routeSession(s.withSession(s.statsSession)))
	handle("GET /v2/sessions/{id}/trace/tail", s.routeSession(s.withSession(s.traceTailSession)))
	handle("GET /v2/sessions/{id}/metrics", s.routeSession(s.withSession(
		func(w http.ResponseWriter, r *http.Request, sess *session) {
			sess.reg.Handler().ServeHTTP(w, r)
		})))
	handle("GET /v2/sessions/{id}/health", s.routeSession(s.withSession(s.healthSession)))
	handle("GET /v2/health", s.handleFleetHealth)

	// /v2/cluster: cluster mode. GET /v2/cluster answers on unclustered
	// services too (enabled=false); the rest answer 412 there.
	handle("GET /v2/cluster", s.handleClusterInfo)
	handle("GET /v2/cluster/route/{id}", s.clusterScoped(handleClusterRoute))
	handle("PUT /v2/cluster/replicas/{id}", s.clusterScoped(handleReplicaPut))
	handle("GET /v2/cluster/replicas/{id}", s.clusterScoped(handleReplicaGet))
	handle("DELETE /v2/cluster/replicas/{id}", s.clusterScoped(handleReplicaDelete))
	handle("POST /v2/cluster/rebalance", s.handleRebalance)

	// The global scrape endpoint stays outside the instrument middleware so
	// scrapes don't inflate the request metrics they collect.
	patterns = append(patterns, "GET /metrics")
	mux.HandleFunc("GET /metrics", s.handleMetrics)

	// Pin the decide-route latency histograms so the fleet health endpoint
	// can surface their exemplars; the registry returns the same instances
	// the middleware observes into.
	decideLats := make([]*obs.Histogram, 0, 2)
	for _, route := range []string{"/v2/sessions/:id/decide", "/v2/sessions/:id/decide/batch"} {
		decideLats = append(decideLats, s.reg.Histogram("megh_http_request_seconds",
			"HTTP request latency in seconds, by route.", obs.Labels{"route": route}))
	}
	s.decideLats.Store(&decideLats)
	handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	})
	// Standard pprof endpoints for live CPU/heap/goroutine profiling.
	// Mounted manually because the service uses its own mux rather than
	// http.DefaultServeMux (where the pprof package self-registers).
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /debug/pprof/":        pprof.Index,
		"GET /debug/pprof/cmdline": pprof.Cmdline,
		"GET /debug/pprof/profile": pprof.Profile,
		"GET /debug/pprof/symbol":  pprof.Symbol,
		"GET /debug/pprof/trace":   pprof.Trace,
	} {
		patterns = append(patterns, pattern)
		mux.HandleFunc(pattern, h)
	}

	sort.Strings(patterns)
	s.routes.Store(&patterns)
	return s.envelope(mux)
}

// Routes returns the sorted mux patterns the service serves — the API
// surface the routes.golden test pins. Populated by Handler.
func (s *Service) Routes() []string {
	if s.routes.Load() == nil {
		s.Handler()
	}
	return append([]string(nil), *s.routes.Load()...)
}

// statusFor maps session-layer sentinel errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errSessionNotFound), errors.Is(err, errSessionDeleted):
		return http.StatusNotFound
	case errors.Is(err, errSessionExists), errors.Is(err, errSessionReserved):
		return http.StatusConflict
	case errors.Is(err, errInvalidSessionID), errors.Is(err, errBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, errNoCheckpointPath):
		return http.StatusPreconditionFailed
	default:
		return http.StatusInternalServerError
	}
}

// withSession resolves {id} before the handler runs; unknown ids answer
// 404 in the uniform envelope.
func (s *Service) withSession(h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.mgr.get(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		h(w, r, sess)
	}
}

// --- middleware ---------------------------------------------------------

// instrument wraps one route with the standard HTTP metrics and a panic
// guard. A panicking handler (e.g. a learner fed a state it cannot accept)
// answers 500 with a JSON error instead of killing the connection, unless a
// header already went out. The status it counts is the one the route's
// envelopeWriter (Handler serves every route through one) recorded.
func (s *Service) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("megh_http_requests_total",
		"HTTP requests served, by route.", obs.Labels{"route": route})
	errs := s.reg.Counter("megh_http_errors_total",
		"HTTP responses with status >= 400, by route.", obs.Labels{"route": route})
	lat := s.reg.Histogram("megh_http_request_seconds",
		"HTTP request latency in seconds, by route.", obs.Labels{"route": route})
	inFlight := s.reg.Gauge("megh_http_in_flight",
		"Requests currently being served.", nil)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		inFlight.Add(1)
		ew := w.(*envelopeWriter)
		defer func() {
			p := recover()
			if p != nil && !ew.wroteHeader {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
			inFlight.Add(-1)
			// The envelope middleware stamped X-Request-ID before this
			// handler ran; recording it as an exemplar links each latency
			// bucket back to a concrete request.
			lat.ObserveExemplar(time.Since(start).Seconds(), w.Header().Get("X-Request-ID"))
			if p != nil || ew.status >= 400 {
				errs.Inc()
			}
		}()
		h(w, r)
	}
}

// envelopeWriter intercepts error responses whose body is not already the
// JSON envelope (the mux's plain-text 404/405, stray http.Error calls)
// and buffers them so envelope() can rewrite the body. It is the one writer
// a response passes through: instrument reads the status it recorded.
type envelopeWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	intercept   bool
	buf         bytes.Buffer
}

func (w *envelopeWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = code
	ct := w.Header().Get("Content-Type")
	if code >= 400 && !strings.HasPrefix(ct, "application/json") {
		// Hold the header back: finish() rewrites this response.
		w.intercept = true
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercept {
		return w.buf.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

// finish emits the buffered error as the uniform JSON envelope.
func (w *envelopeWriter) finish() {
	if !w.intercept {
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Del("Content-Length")
	w.ResponseWriter.WriteHeader(w.status)
	msg := strings.TrimSpace(w.buf.String())
	if msg == "" {
		msg = http.StatusText(w.status)
	}
	_ = json.NewEncoder(w.ResponseWriter).Encode(errorResponse{Error: msg})
}

// envelope is the outermost middleware: every response carries an
// X-Request-ID (the caller's, echoed, or a generated one) and every
// error response leaves as the JSON errorResponse envelope regardless of
// which layer produced it.
func (s *Service) envelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = fmt.Sprintf("megh-%x-%d", s.reqEpoch, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", rid)
		ew := &envelopeWriter{ResponseWriter: w}
		next.ServeHTTP(ew, r)
		ew.finish()
	})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxSmallBodyBytes bounds the fixed-shape request bodies (feedback,
// session spec): a handful of numbers, so 4 KiB is generous.
const maxSmallBodyBytes = 4 << 10

// bodyReadStep is the most readBody reserves on the word of a
// Content-Length header alone.
const bodyReadStep = 1 << 20

// readBody reads a request body of at most limit bytes, whole, appending to
// into[:0] while it fits; a longer body — by its declared length, or by what
// arrives — is an *http.MaxBytesError. A declared length sizes the buffer, so
// an honest body of up to bodyReadStep is read in place with no regrowth;
// past that the buffer at most doubles, and only once the bytes before have
// arrived, so a header that lies cannot reserve more than bodyReadStep plus
// twice what its sender really sent. Whether the buffer outlives the request
// is the caller's decision (see requestScratch).
func readBody(body io.Reader, declared, limit int64, into []byte) ([]byte, error) {
	if declared > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	want := int(declared) // -1 when the sender declared nothing
	buf := into[:0]
	if need := min(max(want, 512), bodyReadStep) + 1; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case int64(len(buf)) > limit:
			return nil, &http.MaxBytesError{Limit: limit}
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		case len(buf) == cap(buf):
			// Double, or stop one byte past the declared length if that is
			// nearer: the read that finds EOF then needs no further growth.
			size := 2 * cap(buf)
			if want >= len(buf) && want < size {
				size = want + 1
			}
			buf = append(make([]byte, 0, size), buf...)
		}
	}
}

// decodeBody reads one request body of at most limit bytes and decodes it
// into v by decodeWire — a feedback post under elidedMediaType is binary,
// every other body JSON, and bytes after the first JSON value are ignored, as
// json.Decoder ignores them. On failure it has answered — see rejectBody —
// and returns false.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any, what string) bool {
	buf, err := readBody(r.Body, r.ContentLength, limit, nil)
	if err == nil {
		_, err = decodeWire(r.Header.Get("Content-Type"), buf, v, nil)
	}
	if err != nil {
		rejectBody(w, err, what)
	}
	return err == nil
}

// decodeSnapshots is decodeBody for the two bodies that carry snapshots, v a
// *StateRequest or a *BatchDecideRequest (see decodeWire). A binary body
// is read and decoded into the session's scratch: the caller recycles the
// returned scratch when it has answered, and v dies with it. A JSON body is
// counted as a decode fallback and owns its memory; the scratch returned for
// it is nil.
func (s *Service) decodeSnapshots(w http.ResponseWriter, r *http.Request, sess *session, limit int64, v any, what string) (*requestScratch, bool) {
	sc := sess.takeScratch()
	buf, err := readBody(r.Body, r.ContentLength, limit, sc.body)
	if err == nil {
		var isBinary bool
		if isBinary, err = decodeWire(r.Header.Get("Content-Type"), buf, v, sc); !isBinary {
			s.decodeFallback.Inc()
		} else if err == nil {
			sc.body = buf
			return sc, true
		}
	}
	if err != nil {
		rejectBody(w, err, what)
	}
	return nil, err == nil
}

// rejectBody answers a body that could not be read or decoded: 413 for one
// past its limit, wherever its JSON ends, 400 for anything else.
func rejectBody(w http.ResponseWriter, err error, what string) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decoding %s: %w", what, err))
}

// --- session handlers ---------------------------------------------------

// decideSession answers a decide: a one-item batch without feedback, answered
// as one DecideResponse.
func (s *Service) decideSession(w http.ResponseWriter, r *http.Request, sess *session) {
	var req [1]BatchDecideItem
	sc, ok := s.decodeSnapshots(w, r, sess, sess.spec.maxSnapshotBytes(), &req[0].State, "snapshot")
	if !ok {
		return
	}
	defer sess.recycle(sc)
	s.decide(w, r, sess, req[:], false)
}

// decideBatchSession answers a decide/batch: many observe→decide steps run
// back-to-back against the session's learner under one lock hold.
func (s *Service) decideBatchSession(w http.ResponseWriter, r *http.Request, sess *session) {
	var req BatchDecideRequest
	sc, ok := s.decodeSnapshots(w, r, sess, sess.spec.maxBatchBytes(), &req, "batch")
	if !ok {
		return
	}
	defer sess.recycle(sc)
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch has no items"))
		return
	}
	if len(req.Items) > MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d items, limit %d", len(req.Items), MaxBatchItems))
		return
	}
	s.decide(w, r, sess, req.Items, true)
}

// decide runs a decoded decide (batched false, one item) or decide/batch.
// Items resolve in order against the base in force, which a full item
// replaces for the items after it, and their feedback is checked; only then
// is the request admitted, by its item count, so the gate can weigh it. The
// session adopts the last base once the whole request stands and is
// admitted, so a refused request (400, 409, 429) changes nothing: it neither
// leaves the learner having consumed half a batch nor replaces another
// client's base. Only a batch's errors name the item.
func (s *Service) decide(w http.ResponseWriter, r *http.Request, sess *session, reqs []BatchDecideItem, batched bool) {
	var one [1]decideItem
	items := one[:]
	if batched {
		items = make([]decideItem, len(reqs))
	}
	held := sess.base.Load()
	base, elided := held, false
	for i := range reqs {
		it := &reqs[i]
		var err error
		if base, err = resolveBase(base, &it.State, sess.id, sess.spec); err == nil && it.Feedback != nil {
			items[i].feedback, err = it.Feedback.simFeedback()
			items[i].observe = true
		}
		if err != nil {
			// 409 when the session does not hold the base an elided item
			// named (the caller's cue to resend the full form), else 400.
			status := http.StatusBadRequest
			if errors.Is(err, errBaseConflict) {
				status = http.StatusConflict
				s.baseConflicts.Inc()
			}
			if batched {
				err = fmt.Errorf("batch item %d: %w", i, err)
			}
			writeError(w, status, err)
			return
		}
		elided = elided || it.State.Base != ""
		// An item carries the request as decoded and the base it resolved to,
		// not a snapshot: decideRound fills the session's one snapshot from it
		// under the session lock, when the item's turn comes, so a batch holds
		// one snapshot however many items it has.
		items[i].state, items[i].base = &it.State, base
	}
	release := s.admitN(w, len(items))
	if release == nil {
		return
	}
	defer release()
	if base != held {
		sess.base.Store(base)
	}
	if elided {
		s.elided.Inc()
	}

	// decideRound returns caller-owned slices, so nothing here races the
	// lock release.
	start := time.Now()
	var outs [][]sim.Migration
	err := s.mgr.withLearner(sess, func(l *core.Megh) error {
		outs = sess.decideRound(l, items)
		return nil
	})
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// The SLO sees the per-item amortized latency — the fair comparison
	// against single decides, since one batch request answers N steps.
	s.slo.ObserveN(time.Since(start).Seconds()/float64(len(items)), int64(len(items)))
	if batched && sess.tracer.Enabled() {
		// The batch marker follows the per-item decide events so meghtrace
		// can amortize the request's wall time across its items.
		ev := trace.Event{
			Kind:       trace.KindBatch,
			Step:       items[len(items)-1].state.Step,
			BatchItems: len(items),
		}
		if sess.tracer.Timings() {
			ev.DecideNanos = time.Since(start).Nanoseconds()
		}
		sess.tracer.Emit(&ev)
	}
	writeDecisions(w, r, items, outs, batched)
}

func (s *Service) feedbackSession(w http.ResponseWriter, r *http.Request, sess *session) {
	var req FeedbackRequest
	if !s.decodeBody(w, r, maxSmallBodyBytes, &req, "feedback") {
		return
	}
	fb, err := req.simFeedback()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release := s.admitN(w, 1)
	if release == nil {
		return
	}
	defer release()
	err = s.mgr.withLearner(sess, func(l *core.Megh) error {
		l.Observe(&fb)
		return nil
	})
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	sess.traceStep(&fb)
	w.WriteHeader(http.StatusNoContent)
}

// simFeedback is the feedback f reports, as the learner observes it; a
// negative step cost is refused.
func (f *FeedbackRequest) simFeedback() (sim.Feedback, error) {
	if f.StepCost < 0 {
		return sim.Feedback{}, fmt.Errorf("negative step cost %g", f.StepCost)
	}
	return sim.Feedback{
		Step:         f.Step,
		StepCost:     f.StepCost,
		EnergyCost:   f.EnergyCost,
		SLACost:      f.SLACost,
		ResourceCost: f.ResourceCost,
	}, nil
}

// traceStep emits the step event for feedback the learner just observed.
// The service never executes migrations itself, so the event carries only
// the cost decomposition the caller reported.
func (s *session) traceStep(fb *sim.Feedback) {
	if s.tracer.Enabled() {
		s.tracer.Emit(&trace.Event{
			Kind:         trace.KindStep,
			Step:         fb.Step,
			EnergyCost:   fb.EnergyCost,
			SLACost:      fb.SLACost,
			ResourceCost: fb.ResourceCost,
			StepCost:     fb.StepCost,
		})
	}
}

// traceTailSession serves the newest buffered trace events, oldest first.
// ?n= bounds the count (default 100); the ring size caps what is
// retained regardless.
func (s *Service) traceTailSession(w http.ResponseWriter, r *http.Request, sess *session) {
	n, ok := queryN(w, r, 100)
	if !ok {
		return
	}
	// The body is what writeJSON makes of a TraceTailResponse, written from
	// one buffer: the ring's events are encoded straight into it, and
	// encoding/json would re-validate and compact every one of them.
	const events = `,"events":[`
	b := strconv.AppendBool([]byte(`{"enabled":`), sess.tracer.Enabled())
	if b = sess.tracer.AppendTail(append(b, events...), n); b[len(b)-1] == '[' {
		b = b[:len(b)-len(events)] // no events: the field is omitted
	} else {
		b = append(b, ']')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(b, "}\n"...))
}

// queryN reads the ?n= count, def when absent. A malformed or negative n
// has been answered 400, and ok is false.
func queryN(w http.ResponseWriter, r *http.Request, def int) (n int, ok bool) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return def, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
		return 0, false
	}
	return n, true
}

// sessionStats builds the stats body, restoring the learner if evicted
// (stats is a touch like any other).
func (s *Service) sessionStats(sess *session) (SessionStatsResponse, error) {
	var resp SessionStatsResponse
	err := s.mgr.withLearner(sess, func(l *core.Megh) error {
		resp = SessionStatsResponse{
			StatsResponse: StatsResponse{
				NumVMs:      sess.spec.NumVMs,
				NumHosts:    sess.spec.NumHosts,
				Decisions:   sess.decisions,
				QTableNNZ:   l.QTableNNZ(),
				Temperature: l.Temperature(),
			},
			ID:        sess.id,
			Live:      true,
			Evictions: sess.evictions,
			Restores:  sess.restores,
		}
		return nil
	})
	return resp, err
}

func (s *Service) statsSession(w http.ResponseWriter, _ *http.Request, sess *session) {
	resp, err := s.sessionStats(sess)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /v2 session lifecycle handlers -------------------------------------

func (s *Service) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	infos := s.mgr.list()
	live := 0
	for _, in := range infos {
		if in.Live {
			live++
		}
	}
	writeJSON(w, http.StatusOK, SessionListResponse{
		Sessions: infos, Live: live, MaxSessions: s.cfg.MaxSessions,
	})
}

func (s *Service) handleSessionPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == DefaultSessionID {
		writeError(w, http.StatusConflict,
			fmt.Errorf("%w: %q is managed by the service configuration", errSessionReserved, id))
		return
	}
	var spec SessionSpec
	if !s.decodeBody(w, r, maxSmallBodyBytes, &spec, "session spec") {
		return
	}
	sess, created, err := s.mgr.put(id, spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, sess.info())
}

func (s *Service) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Service) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.delete(r.PathValue("id")); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- checkpointing ------------------------------------------------------

// errNoCheckpointPath distinguishes "not configured" from I/O failures.
var errNoCheckpointPath = errors.New("no checkpoint path configured")

// CheckpointAll persists every resident session that has a checkpoint
// path; evicted sessions are already on disk. Returns how many files
// were written.
func (s *Service) CheckpointAll() (int, error) { return s.mgr.checkpointAll() }

func (s *Service) checkpointSession(sess *session) (CheckpointResponse, error) {
	if sess.ckptPath == "" {
		return CheckpointResponse{}, errNoCheckpointPath
	}
	var resp CheckpointResponse
	err := s.mgr.withLearner(sess, func(*core.Megh) error {
		n, err := s.mgr.checkpoint(sess)
		resp = CheckpointResponse{Path: sess.ckptPath, Bytes: int(n)}
		return err
	})
	if err != nil {
		return CheckpointResponse{}, err
	}
	return resp, nil
}

func (s *Service) checkpointHandler(w http.ResponseWriter, sess *session) {
	resp, err := s.checkpointSession(sess)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
