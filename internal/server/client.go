package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"megh/internal/obs"
	"megh/internal/sim"
)

const (
	// defaultMaxAttempts bounds each request to 1 try + 2 retries.
	defaultMaxAttempts = 3
	// defaultRetryBaseDelay is the first backoff step; it doubles per
	// retry with up to 50% additive jitter.
	defaultRetryBaseDelay = 50 * time.Millisecond
)

// Client is the typed HTTP client for a meghd service. Transient failures
// (transport errors, 5xx responses, and 429 throttles from the admission
// gate) are retried with exponential backoff and jitter before an error is
// surfaced, so a single dropped connection does not poison a long-running
// caller. Every request takes a context.Context that cancels both the
// in-flight request and any backoff sleep.
//
// Session-scoped requests go through Session(id), which returns a view over
// the /v2 API.
type Client struct {
	base string
	hc   *http.Client

	maxAttempts int
	baseDelay   time.Duration

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// retries, when instrumented, counts retry attempts (not first tries).
	retries *obs.Counter
}

// NewClient builds a client for the service at baseURL (no trailing
// slash). A nil httpClient means http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:        baseURL,
		hc:          httpClient,
		maxAttempts: defaultMaxAttempts,
		baseDelay:   defaultRetryBaseDelay,
		jitter:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// SetRetryPolicy overrides the retry budget: maxAttempts total tries per
// request (minimum 1) and the base backoff delay. Zero values keep the
// defaults.
func (c *Client) SetRetryPolicy(maxAttempts int, baseDelay time.Duration) {
	if maxAttempts >= 1 {
		c.maxAttempts = maxAttempts
	}
	if baseDelay > 0 {
		c.baseDelay = baseDelay
	}
}

// Instrument registers the client's retry counter on reg
// (megh_client_retries_total).
func (c *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		c.retries = nil
		return
	}
	c.retries = reg.Counter("megh_client_retries_total",
		"HTTP request retries after transient transport or 5xx failures.", nil)
}

// backoff returns the sleep before retry number attempt (1-based):
// baseDelay·2^(attempt−1) plus up to 50% jitter, so synchronized clients
// do not retry in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.baseDelay << (attempt - 1)
	c.jitterMu.Lock()
	j := time.Duration(c.jitter.Int63n(int64(d)/2 + 1))
	c.jitterMu.Unlock()
	return d + j
}

// sleep waits out the backoff or returns early with the context's error
// if it is cancelled first — a cancelled caller must not sit through the
// remaining retry budget.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableStatus reports whether an HTTP status is worth retrying: the
// server-side 5xx family, plus 429 from the admission gate (the service
// sheds load expecting the caller to come back after the backoff). Other
// 4xx responses are deterministic rejections of the request itself and
// are surfaced immediately.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// do issues the request up to maxAttempts times. Only the final failure is
// returned; transient errors before that sleep through the backoff and try
// again. Context cancellation cuts both the request and the backoff short.
// A body goes out as contentType; one that lives in a reused buffer comes
// with shared (nil for a body of the caller's own): each request holds a
// reference to it until the transport closes the request body.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, shared *sharedBody, out any) error {
	var lastErr error
	for attempt := 1; attempt <= c.maxAttempts; attempt++ {
		if attempt > 1 {
			if c.retries != nil {
				c.retries.Inc()
			}
			if err := c.sleep(ctx, c.backoff(attempt-1)); err != nil {
				return fmt.Errorf("server: %s: %w", path, err)
			}
		}
		var reader io.Reader
		if body != nil && shared == nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
		if err != nil {
			return fmt.Errorf("server: building %s request: %w", path, err)
		}
		if shared != nil {
			// What NewRequest sets up for a *bytes.Reader, for a reader that
			// reports its Close.
			req.ContentLength = int64(len(body))
			req.GetBody = func() (io.ReadCloser, error) { return shared.open(), nil }
			req.Body = shared.open()
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		switch out.(type) {
		case *DecideResponse, *BatchDecideResponse:
			req.Header.Set("Accept", elidedMediaType) // finish reads either form
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("server: %s: %w", path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		if retryableStatus(resp.StatusCode) {
			lastErr = newStatusError(path, resp)
			closeBody(resp)
			continue
		}
		err = c.finish(path, resp, out)
		closeBody(resp)
		return err
	}
	return lastErr
}

// closeBody reads a response to its end before closing it. A chunked body
// ends in a terminator that arrives after the JSON value a decoder stops
// at; closing short of it hangs up on the server mid-answer — a proxying
// entry node then abandons the owner while it is still answering — and
// gives up the connection.
func closeBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (c *Client) send(ctx context.Context, method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return encodingError(path, err)
		}
	}
	return c.do(ctx, method, path, "application/json", raw, nil, out)
}

// encodingError wraps a request body's encoding failure.
func encodingError(path string, err error) error {
	return fmt.Errorf("server: encoding %s request: %w", path, err)
}

// statusError is an error answer from the service: the status code and
// the JSON envelope's message, if it carried one.
type statusError struct {
	path string
	code int
	msg  string
}

func newStatusError(path string, resp *http.Response) *statusError {
	e := &statusError{path: path, code: resp.StatusCode}
	var body errorResponse
	if json.NewDecoder(resp.Body).Decode(&body) == nil {
		e.msg = body.Error
	}
	return e
}

func (e *statusError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("server: %s: HTTP %d", e.path, e.code)
	}
	return fmt.Sprintf("server: %s: %s (HTTP %d)", e.path, e.msg, e.code)
}

func (c *Client) finish(path string, resp *http.Response, out any) error {
	if resp.StatusCode >= 400 {
		return newStatusError(path, resp)
	}
	if out == nil {
		return nil
	}
	// The largest batch body bounds every answer: a decide's spends a few
	// bytes per migration, and a step moves at most 2 % of the VMs.
	buf, err := readBody(resp.Body, resp.ContentLength, maxBatchBodyBytes, nil)
	if err == nil {
		_, err = decodeWire(resp.Header.Get("Content-Type"), buf, out, nil)
	}
	if err != nil {
		return fmt.Errorf("server: decoding %s response: %w", path, err)
	}
	return nil
}

// --- service methods ----------------------------------------------------

// HealthCtx pings /healthz. No retries: health checks are themselves the
// probe.
func (c *Client) HealthCtx(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("server: health check: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("server: health check: %w", err)
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: health check: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Health is HealthCtx with context.Background().
func (c *Client) Health() error { return c.HealthCtx(context.Background()) }

// --- /v2 session methods ------------------------------------------------

// ListSessions enumerates every session the service knows about.
func (c *Client) ListSessions(ctx context.Context) (SessionListResponse, error) {
	var out SessionListResponse
	err := c.send(ctx, http.MethodGet, "/v2/sessions", nil, &out)
	return out, err
}

// Session returns a view of one named session on the /v2 API. The view
// shares the parent client's base, transport, retry policy, and
// instrumentation; against a cluster, the node at that base proxies the
// session's requests to its owner. Hold on to it: the view remembers the
// snapshot base the service accepted, and a fresh view starts without one
// and sends one full snapshot first.
func (c *Client) Session(id string) *SessionClient {
	return &SessionClient{c: c, id: id, prefix: "/v2/sessions/" + url.PathEscape(id)}
}

// SessionClient scopes requests to one /v2 session. Decide and
// DecideBatchCtx elide transparently: a snapshot whose static fields digest
// to the base the service last accepted from this view goes out in the
// elided form (see StateRequest), as a binary body (codec.go) unless a full
// item shares its batch; anything else goes in full, as JSON. Feedback posts
// are binary too, and so are the service's answers to decides and batches.
// Safe for concurrent use.
type SessionClient struct {
	c      *Client
	id     string
	prefix string

	// base is the digest of the last full snapshot the service accepted
	// from this view (nil before the first). The service treats digest
	// equality as content equality, so the digest is all the view keeps.
	base atomic.Pointer[string]

	// spare is the binary encoder's buffer between requests, nil while a
	// request holds it or none has left one; a Decide, batch or Feedback
	// that finds it empty allocates.
	spare atomic.Pointer[sharedBody]
}

// sharedBody is an encoded request body and a count of who may still read it:
// the call that encoded it, and every request body opened over it. net/http
// may go on reading a request body after the response is in hand (a server
// can answer before it has read everything) and promises only to Close it
// when done, so the buffer goes back to its view's spare slot when the last
// reference does, not when the call returns.
type sharedBody struct {
	buf  []byte
	refs atomic.Int32
	home *SessionClient
}

// takeBody returns the view's spare buffer, or a new one of at least the
// given capacity, holding the caller's reference.
func (s *SessionClient) takeBody(capacity int) *sharedBody {
	b := s.spare.Swap(nil)
	if b == nil {
		b = &sharedBody{buf: make([]byte, 0, capacity), home: s}
	}
	b.refs.Store(1)
	return b
}

// release drops one reference; the last one out leaves the buffer as the
// view's spare.
func (b *sharedBody) release() {
	if b.refs.Add(-1) == 0 {
		b.buf = b.buf[:0]
		b.home.spare.Store(b)
	}
}

// open returns a request body over b holding one reference until its first
// Close (net/http may close a body more than once).
func (b *sharedBody) open() io.ReadCloser {
	b.refs.Add(1)
	return &sharedBodyReader{Reader: *bytes.NewReader(b.buf), b: b}
}

type sharedBodyReader struct {
	bytes.Reader
	b      *sharedBody
	closed atomic.Bool
}

func (r *sharedBodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.b.release()
	}
	return nil
}

// minElideEntries is the smallest snapshot, in hosts plus VMs, the client
// elides. Below it the full form is under 2 KB — one segment on the wire,
// a few µs to decode — so eliding wins nothing measurable, while a
// self-contained request can never 409 after a restart or failover. The
// service accepts the elided form at any size.
const minElideEntries = 32

// elidable reports whether full snapshot r is big enough to elide.
func elidable(r *StateRequest) bool {
	return len(r.Hosts)+len(r.VMs) >= minElideEntries
}

// isBaseConflict reports whether err is the service's 409 to an elided
// snapshot — the session does not hold the base the request named (it
// restarted, failed over, or another client replaced the base).
func isBaseConflict(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusConflict
}

// ID returns the session name this view is scoped to.
func (s *SessionClient) ID() string { return s.id }

// Create registers the session (PUT, idempotent for an identical spec).
func (s *SessionClient) Create(ctx context.Context, spec SessionSpec) (SessionInfo, error) {
	var out SessionInfo
	err := s.c.send(ctx, http.MethodPut, s.prefix, spec, &out)
	return out, err
}

// Info fetches the session descriptor without touching its learner.
func (s *SessionClient) Info(ctx context.Context) (SessionInfo, error) {
	var out SessionInfo
	err := s.c.send(ctx, http.MethodGet, s.prefix, nil, &out)
	return out, err
}

// Delete removes the session and its checkpoint file.
func (s *SessionClient) Delete(ctx context.Context) error {
	return s.c.send(ctx, http.MethodDelete, s.prefix, nil, nil)
}

// Decide posts a snapshot to the session and returns its decisions. A
// snapshot of at least minElideEntries hosts plus VMs travels elided when
// its static fields digest to the base the service accepted earlier; if the
// service no longer holds that base (409) the full form is sent once more —
// a protocol step, not a retry, so it happens whatever SetRetryPolicy says.
func (s *SessionClient) Decide(ctx context.Context, req StateRequest) (DecideResponse, error) {
	var out DecideResponse
	path := s.prefix + "/decide"
	// A snapshot the caller elided by hand is theirs to manage.
	if req.Base != "" || !elidable(&req) {
		return out, s.c.send(ctx, http.MethodPost, path, req, &out)
	}
	digest, failed := staticDigest(req.Hosts, req.VMs)
	if held := s.base.Load(); held != nil && *held == digest {
		body := s.takeBody(elidedSizeHint(&req))
		defer body.release()
		var err error
		if body.buf, err = appendBinaryState(body.buf, &req, digest, failed); err != nil {
			return out, encodingError(path, err)
		}
		if err = s.c.do(ctx, http.MethodPost, path, elidedMediaType, body.buf, body, &out); !isBaseConflict(err) {
			return out, err
		}
	}
	err := s.c.send(ctx, http.MethodPost, path, req, &out)
	if err == nil {
		s.base.Store(&digest)
	}
	return out, err
}

// DecideBatchCtx posts a whole batch of observe→decide steps in one
// request and returns one DecideResponse per item, in order. The server
// runs the items back-to-back under a single learner lock acquisition, so
// the result is decision-identical to calling Feedback and Decide per item
// — what the batch saves is per-step HTTP round-trips, request decodes and
// lock traffic. Batches beyond MaxBatchItems are refused with 400; a batch
// rejected by validation leaves the learner untouched.
//
// Items elide the way Decide's snapshots do, each against the base in force
// at its position: an item whose static fields differ goes in full and
// becomes the base for the items after it. A batch whose every item elides
// goes out binary, any other as JSON with its elidable items elided. A 409
// resends the batch once, its first item in full.
func (s *SessionClient) DecideBatchCtx(ctx context.Context, req BatchDecideRequest) (BatchDecideResponse, error) {
	var out BatchDecideResponse
	path := s.prefix + "/decide/batch"
	byHand := len(req.Items) == 0
	for i := range req.Items {
		byHand = byHand || req.Items[i].State.Base != ""
	}
	if byHand {
		// Empty, or elided by the caller's own hand: theirs to manage.
		return out, s.c.send(ctx, http.MethodPost, path, req, &out)
	}
	var held string
	if p := s.base.Load(); p != nil {
		held = *p
	}
	var err error
	wire, base := elideItems(req.Items, held)
	if wire != nil {
		err = s.c.send(ctx, http.MethodPost, path, BatchDecideRequest{Items: wire}, &out)
	} else {
		size := 16
		for i := range req.Items {
			size += 64 + elidedSizeHint(&req.Items[i].State)
		}
		body := s.takeBody(size)
		defer body.release()
		if body.buf, err = appendBinaryBatch(body.buf, req.Items, held); err != nil {
			return out, encodingError(path, err)
		}
		err = s.c.do(ctx, http.MethodPost, path, elidedMediaType, body.buf, body, &out)
	}
	if isBaseConflict(err) {
		wire, base = elideItems(req.Items, "")
		err = s.c.send(ctx, http.MethodPost, path, BatchDecideRequest{Items: wire}, &out)
	}
	// Either way the service now holds the last item's static fields.
	if err == nil && base != held {
		s.base.Store(&base)
	}
	return out, err
}

// elideItems returns full snapshots items as they travel from a view that
// holds base: an item whose static fields digest to the base in force at its
// position — base, then the last full item's — as its elided copy, any other
// in full. It returns nil instead when every item elides, and the base in
// force after the last item.
func elideItems(items []BatchDecideItem, base string) ([]BatchDecideItem, string) {
	elided := func(it *BatchDecideItem, digest string) BatchDecideItem {
		return BatchDecideItem{State: elideSnapshot(&it.State, digest), Feedback: it.Feedback}
	}
	var wire []BatchDecideItem
	var digest string
	for i := range items {
		st := &items[i].State
		// Consecutive items mostly share their static half: hash it only
		// when it differs from the previous item's.
		if i == 0 || !sameStatic(&items[i-1].State, st) {
			digest, _ = staticDigest(st.Hosts, st.VMs)
		}
		if digest == base && elidable(st) {
			if wire != nil {
				wire = append(wire, elided(&items[i], digest))
			}
			continue
		}
		if wire == nil {
			wire = make([]BatchDecideItem, 0, len(items))
			for j := range i {
				wire = append(wire, elided(&items[j], base))
			}
		}
		wire = append(wire, items[i])
		base = digest
	}
	return wire, base
}

// elideSnapshot returns full snapshot r's elided form under digest, the
// staticDigest of its static fields: its failed hosts by index and its VMs
// stripped to host and utilization.
func elideSnapshot(r *StateRequest, digest string) StateRequest {
	out := StateRequest{Step: r.Step, Base: digest, VMs: make([]VMState, len(r.VMs))}
	for i := range r.Hosts {
		if r.Hosts[i].Failed {
			out.FailedHosts = append(out.FailedHosts, i)
		}
	}
	for j := range r.VMs {
		out.VMs[j] = VMState{Host: r.VMs[j].Host, Utilization: r.VMs[j].Utilization}
	}
	return out
}

// Feedback reports the realised cost of an interval to the session.
func (s *SessionClient) Feedback(ctx context.Context, fb FeedbackRequest) error {
	path := s.prefix + "/feedback"
	body := s.takeBody(64)
	defer body.release()
	var err error
	if body.buf, err = appendBinaryFeedback(body.buf, &fb); err != nil {
		return encodingError(path, err)
	}
	return s.c.do(ctx, http.MethodPost, path, elidedMediaType, body.buf, body, nil)
}

// Stats fetches the session's learner internals (restoring it if evicted).
func (s *SessionClient) Stats(ctx context.Context) (SessionStatsResponse, error) {
	var out SessionStatsResponse
	err := s.c.send(ctx, http.MethodGet, s.prefix+"/stats", nil, &out)
	return out, err
}

// Checkpoint persists the session's learner state.
func (s *SessionClient) Checkpoint(ctx context.Context) (CheckpointResponse, error) {
	var out CheckpointResponse
	err := s.c.send(ctx, http.MethodPost, s.prefix+"/checkpoint", struct{}{}, &out)
	return out, err
}

// TraceTail fetches the newest n buffered trace events (n <= 0 keeps the
// server default).
func (s *SessionClient) TraceTail(ctx context.Context, n int) (TraceTailResponse, error) {
	path := s.prefix + "/trace/tail"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var out TraceTailResponse
	err := s.c.send(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// --- simulator adapter --------------------------------------------------

// RemotePolicy adapts one session of a meghd service into a sim.Policy, so
// the simulator can drive the service over HTTP exactly as a monitoring
// pipeline would — the loopback ("hardware-in-the-loop") configuration used
// by the service integration tests and examples/service.
type RemotePolicy struct {
	session *SessionClient
	// err records the first post-retry failure; the policy degrades to
	// no-ops afterwards. Because the client retries transient errors with
	// backoff before surfacing them, a single dropped connection no longer
	// latches the policy into permanent no-op.
	err error
}

var (
	_ sim.Policy           = (*RemotePolicy)(nil)
	_ sim.FeedbackReceiver = (*RemotePolicy)(nil)
)

// NewRemoteSessionPolicy wraps a session view as a simulator policy.
func NewRemoteSessionPolicy(sc *SessionClient) *RemotePolicy {
	return &RemotePolicy{session: sc}
}

// Name implements sim.Policy.
func (p *RemotePolicy) Name() string { return "Megh(remote:" + p.session.id + ")" }

// Err returns the first exhausted-retries transport error, if any.
func (p *RemotePolicy) Err() error { return p.err }

// Decide implements sim.Policy by shipping the snapshot over HTTP.
func (p *RemotePolicy) Decide(s *sim.Snapshot) []sim.Migration {
	if p.err != nil {
		return nil
	}
	req := StateRequest{Step: s.Step}
	req.Hosts = make([]HostState, s.NumHosts())
	for i := range req.Hosts {
		spec := s.HostSpecs[i]
		req.Hosts[i] = HostState{
			MIPS: spec.MIPS, RAMMB: spec.RAMMB, BandwidthMbps: spec.BandwidthMbps,
			Failed: len(s.HostFailed) > 0 && s.HostFailed[i],
		}
	}
	req.VMs = make([]VMState, s.NumVMs())
	for j := range req.VMs {
		spec := s.VMSpecs[j]
		req.VMs[j] = VMState{
			Host: s.VMHost[j], Utilization: s.VMUtil[j],
			MIPS: spec.MIPS, RAMMB: spec.RAMMB, BandwidthMbps: spec.BandwidthMbps,
		}
	}
	resp, err := p.session.Decide(context.Background(), req)
	if err != nil {
		p.err = err
		return nil
	}
	migs := make([]sim.Migration, 0, len(resp.Migrations))
	for _, m := range resp.Migrations {
		migs = append(migs, sim.Migration{VM: m.VM, Dest: m.Dest})
	}
	return migs
}

// Observe implements sim.FeedbackReceiver by forwarding the realised cost.
func (p *RemotePolicy) Observe(fb *sim.Feedback) {
	if p.err != nil {
		return
	}
	err := p.session.Feedback(context.Background(), FeedbackRequest{
		Step:         fb.Step,
		StepCost:     fb.StepCost,
		EnergyCost:   fb.EnergyCost,
		SLACost:      fb.SLACost,
		ResourceCost: fb.ResourceCost,
	})
	if err != nil {
		p.err = err
	}
}
