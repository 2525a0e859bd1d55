package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"megh/internal/cluster"
	"megh/internal/core"
	"megh/internal/obs"
)

// ClusterConfig turns a meghd process into one node of a meghd cluster:
// session IDs are assigned to nodes by consistent hashing, requests for
// sessions owned elsewhere are proxied to the owner, and every session
// checkpoint is replicated to the session's ring successors so an owner
// crash loses no learning — the new owner promotes its replica on the
// session's next touch. Cluster mode requires CheckpointDir (replicas are
// checkpoint files).
type ClusterConfig struct {
	// NodeName is this node's stable ring identity.
	NodeName string
	// AdvertiseURL is the base URL peers and routed clients use to reach
	// this node (e.g. "http://10.0.0.3:8080", no trailing slash).
	AdvertiseURL string
	// Peers maps peer node names to their base URLs. An entry matching
	// NodeName is ignored, so every node can ship the same list.
	Peers map[string]string
	// Replicas is the number of nodes holding each session's checkpoint,
	// owner included; 0 means cluster.DefReplicas (2). Clamped to the
	// cluster size.
	Replicas int
	// HeartbeatEvery is the probe cadence of Service.StartCluster; 0
	// means DefClusterHeartbeat.
	HeartbeatEvery time.Duration
	// FailAfter is the consecutive probe failures marking a peer dead;
	// 0 means cluster.DefFailAfter.
	FailAfter int
	// ProbeTimeout bounds one heartbeat request; 0 means
	// DefClusterProbeTimeout.
	ProbeTimeout time.Duration
	// SyncReplicate pushes checkpoint replicas inline with the checkpoint
	// instead of asynchronously. Slower checkpoints, deterministic tests.
	SyncReplicate bool
	// HTTPClient carries proxy, replication, and probe traffic; nil means
	// a dedicated client with sane timeouts.
	HTTPClient *http.Client
}

const (
	// DefClusterHeartbeat is the default peer-probe cadence.
	DefClusterHeartbeat = time.Second
	// DefClusterProbeTimeout bounds one heartbeat probe.
	DefClusterProbeTimeout = 2 * time.Second
	// maxReplicaBytes caps one replicated checkpoint image (1 GiB —
	// far beyond any real learner, small enough to bound a hostile PUT).
	maxReplicaBytes = 1 << 30

	// forwardedHeader marks a proxied request. A node receiving it serves
	// the request locally even if its own view says another node owns the
	// session: one hop at most, so transiently split ring views degrade
	// into an extra hop instead of a proxy loop.
	forwardedHeader = "X-Megh-Forwarded"
	// proxiedHeader names the owner that actually served a proxied
	// response, so callers can see routing happen.
	proxiedHeader = "X-Megh-Proxied"
)

// errClusterDisabled answers cluster-only endpoints on an unclustered
// service.
var errClusterDisabled = errors.New("cluster mode disabled")

// clusterRuntime is the service-side half of cluster mode: it owns the
// cluster.Node (ring + membership), the proxy and replication transport,
// and the cluster metrics.
type clusterRuntime struct {
	node *cluster.Node
	svc  *Service

	httpc          *http.Client
	heartbeatEvery time.Duration
	probeTimeout   time.Duration
	syncReplicate  bool
	replicaDir     string

	// lastRebalanced is the epoch the leader last fanned a rebalance out
	// for, so each membership change triggers exactly one sweep.
	lastRebalanced atomic.Int64

	// pushWG tracks in-flight async replica pushes so shutdown (and
	// tests) can wait them out.
	pushWG sync.WaitGroup

	cProxied    *obs.Counter
	cProxyErrs  *obs.Counter
	cReplPush   *obs.Counter
	cReplErrs   *obs.Counter
	cPromoted   *obs.Counter
	cRebalanced *obs.Counter
	cProbeFails *obs.Counter
	gNodesAlive *obs.Gauge
	gIsLeader   *obs.Gauge
	gEpoch      *obs.Gauge
}

// newClusterRuntime validates the cluster configuration and builds the
// runtime. Called by New when cfg.Cluster is set.
func newClusterRuntime(svc *Service, cfg Config) (*clusterRuntime, error) {
	cc := cfg.Cluster
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("server: cluster mode needs a checkpoint dir (replicas are checkpoint files)")
	}
	if cc.AdvertiseURL == "" {
		return nil, fmt.Errorf("server: cluster mode needs an advertise URL")
	}
	peers := make([]cluster.Peer, 0, len(cc.Peers))
	for name, url := range cc.Peers {
		peers = append(peers, cluster.Peer{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	node, err := cluster.NewNode(cluster.Config{
		Self:      cluster.Peer{Name: cc.NodeName, URL: strings.TrimSuffix(cc.AdvertiseURL, "/")},
		Peers:     peers,
		Replicas:  cc.Replicas,
		FailAfter: cc.FailAfter,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	replicaDir := filepath.Join(cfg.CheckpointDir, "replicas")
	if err := os.MkdirAll(replicaDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating replica dir: %w", err)
	}
	httpc := cc.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: 30 * time.Second}
	}
	heartbeat := cc.HeartbeatEvery
	if heartbeat <= 0 {
		heartbeat = DefClusterHeartbeat
	}
	probeTimeout := cc.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = DefClusterProbeTimeout
	}
	reg := svc.reg
	c := &clusterRuntime{
		node:           node,
		svc:            svc,
		httpc:          httpc,
		heartbeatEvery: heartbeat,
		probeTimeout:   probeTimeout,
		syncReplicate:  cc.SyncReplicate,
		replicaDir:     replicaDir,
		cProxied: reg.Counter("megh_cluster_proxied_requests_total",
			"Session requests proxied to their ring owner on another node.", nil),
		cProxyErrs: reg.Counter("megh_cluster_proxy_errors_total",
			"Proxied session requests that failed to reach the owner.", nil),
		cReplPush: reg.Counter("megh_cluster_replications_total",
			"Checkpoint images pushed to replica peers.", nil),
		cReplErrs: reg.Counter("megh_cluster_replication_errors_total",
			"Checkpoint replica pushes that failed.", nil),
		cPromoted: reg.Counter("megh_cluster_replica_promotions_total",
			"Sessions restored from a replicated checkpoint after ownership moved.", nil),
		cRebalanced: reg.Counter("megh_cluster_rebalanced_sessions_total",
			"Sessions handed to their new ring owner by a rebalance sweep.", nil),
		cProbeFails: reg.Counter("megh_cluster_probe_failures_total",
			"Peer heartbeat probes that failed.", nil),
		gNodesAlive: reg.Gauge("megh_cluster_nodes_alive",
			"Cluster nodes this node currently considers alive (itself included).", nil),
		gIsLeader: reg.Gauge("megh_cluster_is_leader",
			"1 when this node is the elected leader (lowest alive node name), else 0.", nil),
		gEpoch: reg.Gauge("megh_cluster_epoch",
			"Alive-set generation backing the current placement ring.", nil),
	}
	c.lastRebalanced.Store(node.Epoch())
	c.publishGauges()
	return c, nil
}

// publishGauges refreshes the membership gauges (called after probe
// rounds and at scrape time).
func (c *clusterRuntime) publishGauges() {
	c.gNodesAlive.Set(float64(len(c.node.Membership().Alive())))
	if c.node.IsLeader() {
		c.gIsLeader.Set(1)
	} else {
		c.gIsLeader.Set(0)
	}
	c.gEpoch.Set(float64(c.node.Epoch()))
}

// replicaPath is where a replicated checkpoint for session id lands.
func (c *clusterRuntime) replicaPath(id string) string {
	return filepath.Join(c.replicaDir, id+".ckpt")
}

// --- request routing ----------------------------------------------------

// routeSession wraps a session-scoped handler with ownership routing:
// requests for sessions this node does not own are proxied to the ring
// owner. The default session is node-local by construction (each node
// builds its own from its Config), and already-forwarded requests are served
// locally — the one-hop rule that keeps transiently split views from
// looping.
func (s *Service) routeSession(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := s.cluster
		if c == nil {
			h(w, r)
			return
		}
		id := r.PathValue("id")
		if id == DefaultSessionID || r.Header.Get(forwardedHeader) != "" || c.node.OwnsLocally(id) {
			h(w, r)
			return
		}
		c.proxy(w, r, id)
	}
}

// proxy forwards the request verbatim to the session's owner and relays
// the response. A transport failure answers 502 and counts a probe
// failure against the owner, so a dead owner leaves the ring after
// FailAfter failed proxies even between heartbeats.
func (c *clusterRuntime) proxy(w http.ResponseWriter, r *http.Request, id string) {
	owner := c.node.Owner(id)
	if owner.URL == "" {
		// Unreachable in practice (remote owners always carry URLs); answer
		// 502 rather than send the request nowhere.
		writeError(w, http.StatusBadGateway,
			fmt.Errorf("session %q owned by %q, which has no address", id, owner.Name))
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, owner.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("building proxy request: %w", err))
		return
	}
	// A bare io.Reader body has no length NewRequest can infer; without the
	// inbound one every proxied request would go out chunked.
	req.ContentLength = r.ContentLength
	for _, hdr := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(hdr); v != "" {
			req.Header.Set(hdr, v)
		}
	}
	// The ID the envelope stamped on the response — the caller's, or the
	// one minted here when the caller sent none — so the owner records the
	// ID the caller is given.
	if rid := w.Header().Get("X-Request-ID"); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	req.Header.Set(forwardedHeader, c.node.Self().Name)
	resp, err := c.httpc.Do(req)
	if err != nil {
		c.cProxyErrs.Inc()
		c.node.Membership().ReportFailure(owner.Name)
		writeError(w, http.StatusBadGateway,
			fmt.Errorf("proxying session %q to owner %q: %v", id, owner.Name, err))
		return
	}
	defer resp.Body.Close()
	c.cProxied.Inc()
	c.node.Membership().ReportSuccess(owner.Name)
	for _, hdr := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(hdr); v != "" {
			w.Header().Set(hdr, v)
		}
	}
	w.Header().Set(proxiedHeader, owner.Name)
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[32 << 10]byte)
	_, _ = io.CopyBuffer(w, resp.Body, buf[:])
	relayBufs.Put(buf)
}

// relayBufs holds proxy's copy buffers. The one writer a response is relayed
// through, envelopeWriter, hides the connection's ReadFrom, so io.Copy would
// allocate a fresh 32 KB buffer for every proxied request.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// --- checkpoint replication ---------------------------------------------

// replicate pushes the image just landed at path to every node of the
// session's replica set except this one. Asynchronous unless
// SyncReplicate; failures count but never fail the checkpoint itself (a
// missed push is repaired by the next checkpoint or a rebalance sweep).
func (c *clusterRuntime) replicate(id, path string) {
	if id == DefaultSessionID {
		return
	}
	targets := c.replicaTargets(id)
	if len(targets) == 0 {
		return
	}
	push := c.pushReplicas(id, path, targets)
	if c.syncReplicate {
		push()
		return
	}
	c.pushWG.Add(1)
	go func() {
		defer c.pushWG.Done()
		push()
	}()
}

// replicaTargets is the session's replica set minus this node.
func (c *clusterRuntime) replicaTargets(id string) []cluster.Peer {
	owners := c.node.Owners(id)
	self := c.node.Self().Name
	out := owners[:0:0]
	for _, p := range owners {
		if p.Name != self && p.URL != "" {
			out = append(out, p)
		}
	}
	return out
}

// pushReplicas opens the image at path once per target while the caller
// holds the session's lock, so no later rename changes what is sent, and
// returns the push: it PUTs each and reports how many peers took it.
func (c *clusterRuntime) pushReplicas(id, path string, targets []cluster.Peer) func() int {
	images := make([]*os.File, len(targets))
	for i := range targets {
		images[i], _ = os.Open(path) // a nil descriptor fails its push
	}
	return func() int {
		pushed := 0
		for i, p := range targets {
			if images[i] == nil || c.putReplica(p, id, images[i]) != nil {
				c.cReplErrs.Inc()
			} else {
				c.cReplPush.Inc()
				pushed++
			}
		}
		return pushed
	}
}

// putReplica ships one checkpoint image to one peer and closes it. With
// its length set, the transport can send the file with sendfile.
func (c *clusterRuntime) putReplica(p cluster.Peer, id string, img *os.File) error {
	defer img.Close()
	info, err := img.Stat()
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, p.URL+"/v2/cluster/replicas/"+id, img)
	if err != nil {
		return err
	}
	req.ContentLength = info.Size()
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(forwardedHeader, c.node.Self().Name)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica put to %s: HTTP %d", p.Name, resp.StatusCode)
	}
	return nil
}

// WaitReplication blocks until every in-flight asynchronous replica push
// has completed. Shutdown calls it so a final checkpoint's replicas land
// before the process exits; tests use it for determinism.
func (s *Service) WaitReplication() {
	if s.cluster != nil {
		s.cluster.pushWG.Wait()
	}
}

// dropReplicas purges a deleted session's replicated images: the local
// copy synchronously, every peer's copy with an idempotent DELETE
// broadcast (asynchronous unless SyncReplicate — a peer that misses it
// only holds a replica nothing will ever promote, since the session
// record is gone).
func (c *clusterRuntime) dropReplicas(id string) {
	_ = os.Remove(c.replicaPath(id))
	drop := func() {
		for _, row := range c.node.Membership().Table() {
			if row.Name == c.node.Self().Name || row.URL == "" {
				continue
			}
			req, err := http.NewRequest(http.MethodDelete, row.URL+"/v2/cluster/replicas/"+id, nil)
			if err != nil {
				continue
			}
			req.Header.Set(forwardedHeader, c.node.Self().Name)
			if resp, err := c.httpc.Do(req); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	if c.syncReplicate {
		drop()
		return
	}
	c.pushWG.Add(1)
	go func() {
		defer c.pushWG.Done()
		drop()
	}()
}

// promoteReplica is the failover path, wired into the session manager as
// its restore fallback: when a session's primary checkpoint is missing on
// this node but a replicated image exists (pushed here while another node
// owned the session), the replica becomes the primary. The copy preserves
// the replica file, so a flapping owner can fail over repeatedly.
func (c *clusterRuntime) promoteReplica(id, primaryPath string) bool {
	replica, err := os.Open(c.replicaPath(id))
	if err != nil {
		return false
	}
	defer replica.Close()
	if _, err := core.WriteFileAtomic(primaryPath, replica.WriteTo); err != nil {
		return false
	}
	c.cPromoted.Inc()
	return true
}

// --- rebalancing --------------------------------------------------------

// Rebalance hands every local session this node no longer owns to its
// ring owner: the session is checkpointed (if resident), its image is
// pushed synchronously to the full replica set (owner included), and the
// local learner is dropped. The session record stays registered — future
// requests for it are proxied to the owner — and the owner promotes the
// pushed replica on its next touch. Idempotent: a sweep with nothing
// misplaced moves nothing.
func (s *Service) Rebalance() (ClusterRebalanceResponse, error) {
	if s.cluster == nil {
		return ClusterRebalanceResponse{}, errClusterDisabled
	}
	return s.cluster.rebalance(), nil
}

func (c *clusterRuntime) rebalance() ClusterRebalanceResponse {
	var resp ClusterRebalanceResponse
	c.svc.mgr.forEachSession(func(sess *session) {
		if sess.pinned || c.node.OwnsLocally(sess.id) {
			return
		}
		resp.Checked++
		sess.mu.Lock()
		if sess.deleted || sess.ckptPath == "" {
			sess.mu.Unlock()
			return
		}
		// Fresh image: checkpoint a resident learner; an evicted session's
		// image is already on disk. Either way the file is what is pushed.
		if sess.learner != nil {
			if _, err := c.svc.mgr.writeImage(sess); err != nil {
				sess.mu.Unlock()
				resp.Errors++
				return
			}
		}
		// Push to the whole replica set, owner first, synchronously — the
		// handoff must land before this node forgets the learner.
		owners := c.replicaTargets(sess.id)
		if c.pushReplicas(sess.id, sess.ckptPath, owners)() == 0 && len(owners) > 0 {
			// No copy landed anywhere: keep the learner, try next sweep.
			sess.mu.Unlock()
			resp.Errors++
			return
		}
		// Moved counts learner handoffs. A session whose learner already
		// left in an earlier sweep just had its image re-pushed above —
		// healing for a replica set that moved again, not a new handoff.
		if sess.learner != nil {
			c.svc.mgr.release(sess)
			sess.evictions++
			c.svc.mgr.cEvict.Inc()
			c.cRebalanced.Inc()
			resp.Moved++
		}
		sess.mu.Unlock()
	})
	return resp
}

// --- heartbeat + leader loop --------------------------------------------

// Clustered reports whether the service runs in cluster mode.
func (s *Service) Clustered() bool { return s.cluster != nil }

// ClusterNode exposes the cluster view (nil when not clustered) for CLIs
// and tests.
func (s *Service) ClusterNode() *cluster.Node {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.node
}

// StartCluster runs the heartbeat loop until ctx is cancelled: every
// HeartbeatEvery it probes each peer's /healthz, and — when this node
// leads and the alive set changed since the last sweep — fans a rebalance
// out to every alive node (itself included) so sessions follow the ring.
// No-op on an unclustered service.
func (s *Service) StartCluster(ctx context.Context) {
	c := s.cluster
	if c == nil {
		return
	}
	ticker := time.NewTicker(c.heartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.probeRound(ctx)
			c.maybeLeadRebalance(ctx)
		}
	}
}

// probeRound probes every peer once and refreshes the gauges.
func (c *clusterRuntime) probeRound(ctx context.Context) {
	for _, row := range c.node.Membership().Table() {
		if row.Name == c.node.Self().Name {
			continue
		}
		if err := c.probePeer(ctx, row.Peer); err != nil {
			c.cProbeFails.Inc()
			c.node.Membership().ReportFailure(row.Name)
		} else {
			c.node.Membership().ReportSuccess(row.Name)
		}
	}
	c.publishGauges()
}

// probePeer is one /healthz heartbeat.
func (c *clusterRuntime) probePeer(ctx context.Context, p cluster.Peer) error {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// maybeLeadRebalance fans out one rebalance sweep per alive-set epoch —
// only from the leader, so a converged cluster runs exactly one sweep per
// membership change (the sweep itself is idempotent, so a transiently
// split leadership at worst repeats it).
func (c *clusterRuntime) maybeLeadRebalance(ctx context.Context) {
	if !c.node.IsLeader() {
		return
	}
	epoch := c.node.Epoch()
	if c.lastRebalanced.Load() == epoch {
		return
	}
	c.lastRebalanced.Store(epoch)
	c.rebalance()
	for _, row := range c.node.Membership().Table() {
		if row.Name == c.node.Self().Name || row.State == cluster.StateDead || row.URL == "" {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			row.URL+"/v2/cluster/rebalance", nil)
		if err != nil {
			continue
		}
		req.Header.Set(forwardedHeader, c.node.Self().Name)
		if resp, err := c.httpc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}
