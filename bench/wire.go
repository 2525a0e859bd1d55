package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"megh/internal/power"
	"megh/internal/server"
	"megh/internal/sim"
)

// target is one system under test: the in-process service (or three-node
// cluster) behind loopback listeners, and the one client bound to the one
// session the workload drives. Everything it owns is released by close.
type target struct {
	servers []*httptest.Server
	// owner holds the session's learner; entry is where the client
	// connects (the same service unless the workload proxies).
	owner, entry *server.Service
	entryURL     string
	// successorURL is the replica holder's base URL (cluster only).
	successorURL string
	transports   []*http.Transport
	hc           *http.Client
	sess         *server.SessionClient
	id           string
	// sessionCalls counts requests sent to session-scoped routes, so a
	// cluster run can check that node a proxied every one of them.
	sessionCalls int
}

// handlerHolder lets a listener exist before the service behind it does:
// cluster nodes need each other's URLs at construction time.
type handlerHolder struct {
	mu sync.RWMutex
	h  http.Handler
}

func (hh *handlerHolder) set(h http.Handler) {
	hh.mu.Lock()
	hh.h = h
	hh.mu.Unlock()
}

func (hh *handlerHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hh.mu.RLock()
	h := hh.h
	hh.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// serviceConfig is the service as meghd starts it with no tuning flags:
// every Config field at its zero-value default (exact update mode,
// default coalesce linger, health and per-session trace ring on) plus a
// checkpoint directory. The mandatory default session is sized 2×2 so it
// stays out of the heap numbers; the workloads use /v2 sessions.
func serviceConfig(dir string, seed int64) server.Config {
	return server.Config{NumVMs: 2, NumHosts: 2, Seed: seed, CheckpointDir: dir}
}

// newTransport is net/http's default transport, owned by the workload so
// its idle connections can be closed when the workload ends.
func (t *target) newTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	t.transports = append(t.transports, tr)
	return tr
}

// connect builds the client: one keep-alive connection, retries off so a
// failure is counted rather than hidden, and — on traced runs — the
// tracing RoundTripper inside the http.Client.
func (t *target) connect(rec *recorder) {
	var rt http.RoundTripper = t.newTransport()
	if rec != nil {
		rt = &tracingTransport{rec: rec, base: rt}
	}
	t.hc = &http.Client{Transport: rt}
	c := server.NewClient(t.entryURL, t.hc)
	c.SetRetryPolicy(1, 0)
	t.sess = c.Session(t.id)
}

// wrap puts the tracing middleware around a service's handler on traced
// runs; untraced runs serve the handler bare.
func wrap(rec *recorder, node string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return rec.middleware(node, h)
}

// newSingleNode starts one service on 127.0.0.1:0.
func newSingleNode(dir string, seed int64, rec *recorder) (*target, error) {
	svc, err := server.New(serviceConfig(dir, seed))
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(wrap(rec, "a", svc.Handler()))
	t := &target{servers: []*httptest.Server{ts}, owner: svc, entry: svc,
		entryURL: ts.URL, id: "bench"}
	t.connect(rec)
	return t, nil
}

// newCluster starts nodes a, b and c with synchronous replication and no
// heartbeat loop (StartCluster is never called, so no goroutine outlives
// the workload), picks a session ID that node b owns, and connects the
// client to node a, so every session request takes exactly one proxy hop.
func newCluster(dir string, seed int64, rec *recorder) (*target, error) {
	names := []string{"a", "b", "c"}
	t := &target{}
	holders := make(map[string]*handlerHolder, len(names))
	urls := make(map[string]string, len(names))
	for _, n := range names {
		hh := &handlerHolder{}
		ts := httptest.NewServer(hh)
		t.servers = append(t.servers, ts)
		holders[n], urls[n] = hh, ts.URL
	}
	svcs := make(map[string]*server.Service, len(names))
	for _, n := range names {
		peers := make(map[string]string, len(names)-1)
		for _, m := range names {
			if m != n {
				peers[m] = urls[m]
			}
		}
		cfg := serviceConfig(filepath.Join(dir, n), seed)
		cfg.Cluster = &server.ClusterConfig{
			NodeName: n, AdvertiseURL: urls[n], Peers: peers, SyncReplicate: true,
			// The service's default inter-node client, on a transport this
			// workload owns so its connections close with the workload.
			HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: t.newTransport()},
		}
		svc, err := server.New(cfg)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("node %s: %w", n, err)
		}
		holders[n].set(wrap(rec, n, svc.Handler()))
		svcs[n] = svc
	}
	node := svcs["a"].ClusterNode()
	for i := 0; t.id == ""; i++ {
		if i == 4096 {
			t.close()
			return nil, fmt.Errorf("no session ID owned by node b in 4096 tries")
		}
		if id := fmt.Sprintf("bench-%d", i); node.Owner(id).Name == "b" {
			t.id = id
		}
	}
	owners := node.Owners(t.id)
	if len(owners) < 2 {
		t.close()
		return nil, fmt.Errorf("session %s has no replica successor", t.id)
	}
	t.owner, t.entry = svcs["b"], svcs["a"]
	t.entryURL, t.successorURL = urls["a"], owners[1].URL
	t.connect(rec)
	return t, nil
}

func (t *target) close() {
	for _, ts := range t.servers {
		ts.Close()
	}
	for _, tr := range t.transports {
		tr.CloseIdleConnections()
	}
}

// get fetches an operational route (metrics, health, replicas) through the
// workload's own http.Client.
func (t *target) get(url string) ([]byte, error) {
	resp, err := t.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

// checkReplica asserts that the successor's stored replica is
// byte-identical to the owner's checkpoint file.
func (t *target) checkReplica(ckptPath string) error {
	want, err := os.ReadFile(ckptPath)
	if err != nil {
		return err
	}
	got, err := t.get(t.successorURL + "/v2/cluster/replicas/" + t.id)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replica on successor (%d bytes) differs from owner checkpoint %s (%d bytes)",
			len(got), ckptPath, len(want))
	}
	return nil
}

// stateRequest is the snapshot a monitoring pipeline would POST.
func stateRequest(s *sim.Snapshot) server.StateRequest {
	req := server.StateRequest{
		Step:  s.Step,
		Hosts: make([]server.HostState, s.NumHosts()),
		VMs:   make([]server.VMState, s.NumVMs()),
	}
	for i := range req.Hosts {
		spec := s.HostSpecs[i]
		req.Hosts[i] = server.HostState{
			MIPS: spec.MIPS, RAMMB: spec.RAMMB, BandwidthMbps: spec.BandwidthMbps,
			Failed: len(s.HostFailed) > 0 && s.HostFailed[i],
		}
	}
	for j := range req.VMs {
		spec := s.VMSpecs[j]
		req.VMs[j] = server.VMState{
			Host: s.VMHost[j], Utilization: s.VMUtil[j],
			MIPS: spec.MIPS, RAMMB: spec.RAMMB, BandwidthMbps: spec.BandwidthMbps,
		}
	}
	return req
}

func feedbackRequest(fb *sim.Feedback) server.FeedbackRequest {
	return server.FeedbackRequest{
		Step: fb.Step, StepCost: fb.StepCost,
		EnergyCost: fb.EnergyCost, SLACost: fb.SLACost, ResourceCost: fb.ResourceCost,
	}
}

// wireFeedback is what survives the wire: the cost fields, not the
// executed/rejected migration lists.
func wireFeedback(fb server.FeedbackRequest) *sim.Feedback {
	return &sim.Feedback{
		Step: fb.Step, StepCost: fb.StepCost,
		EnergyCost: fb.EnergyCost, SLACost: fb.SLACost, ResourceCost: fb.ResourceCost,
	}
}

// snapshotFromRequest rebuilds the learner's view of a posted snapshot the
// way the service does (host VM lists in VM order, utilization summed in
// that order), so a local learner fed it sees bit-identical inputs. The
// service's own conversion is unexported; core.mirror_agreement reports
// whether this copy still matches it.
func snapshotFromRequest(r *server.StateRequest, overload, stepSeconds float64) *sim.Snapshot {
	nH, nV := len(r.Hosts), len(r.VMs)
	s := &sim.Snapshot{
		Step: r.Step, StepSeconds: stepSeconds, OverloadThreshold: overload,
		VMHost:      make([]int, nV),
		VMUtil:      make([]float64, nV),
		VMMIPS:      make([]float64, nV),
		VMSpecs:     make([]sim.VMSpec, nV),
		HostUtil:    make([]float64, nH),
		HostVMs:     make([][]int, nH),
		HostSpecs:   make([]sim.HostSpec, nH),
		HostHistory: make([][]float64, nH),
		VMHistory:   make([][]float64, nV),
		HostFailed:  make([]bool, nH),
	}
	g4 := power.HPProLiantG4()
	for i, h := range r.Hosts {
		s.HostSpecs[i] = sim.HostSpec{MIPS: h.MIPS, RAMMB: h.RAMMB, BandwidthMbps: h.BandwidthMbps, Power: g4}
		s.HostFailed[i] = h.Failed
	}
	for j, v := range r.VMs {
		s.VMHost[j] = v.Host
		s.VMUtil[j] = v.Utilization
		s.VMMIPS[j] = v.Utilization * v.MIPS
		s.VMSpecs[j] = sim.VMSpec{MIPS: v.MIPS, RAMMB: v.RAMMB, BandwidthMbps: v.BandwidthMbps}
		s.HostVMs[v.Host] = append(s.HostVMs[v.Host], j)
	}
	for i := range s.HostUtil {
		var mips float64
		for _, j := range s.HostVMs[i] {
			mips += s.VMMIPS[j]
		}
		s.HostUtil[i] = mips / s.HostSpecs[i].MIPS
	}
	return s
}

// call times one client call. On traced runs it also mints the request ID
// the other layers' spans share and records the client span, from the
// same two clock readings the latency sample uses.
func call(rec *recorder, op string, fn func(ctx context.Context) error) (time.Duration, error) {
	ctx := context.Background()
	var rid string
	if rec != nil {
		rid = rec.nextReq()
		ctx = withReq(ctx, rid)
	}
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	if rec != nil {
		st := int64(start.Sub(rec.epoch))
		rec.add(span{ID: clientSpanID(rid), Req: rid, Name: "client." + op, Start: st, End: st + int64(d)})
	}
	return d, err
}
