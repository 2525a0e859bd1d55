package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"megh/internal/cluster"
	"megh/internal/obs"
)

// handlerHolder lets a httptest server exist before the service behind it
// does: cluster nodes need each other's URLs at construction time.
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

// testCluster is an in-process meghd cluster: one Service per node behind
// a real httptest listener, synchronous replication for determinism, and
// no heartbeat loop — membership transitions are driven explicitly.
type testCluster struct {
	names   []string
	svcs    map[string]*Service
	urls    map[string]string
	servers map[string]*httptest.Server
}

func newTestCluster(t *testing.T, replicas int, names ...string) *testCluster {
	t.Helper()
	return newTestClusterTuned(t, replicas, nil, names...)
}

// newTestClusterTuned is newTestCluster with a per-node config hook.
func newTestClusterTuned(t *testing.T, replicas int, tune func(*ClusterConfig), names ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		names:   names,
		svcs:    make(map[string]*Service, len(names)),
		urls:    make(map[string]string, len(names)),
		servers: make(map[string]*httptest.Server, len(names)),
	}
	holders := make(map[string]*handlerHolder, len(names))
	for _, n := range names {
		hh := &handlerHolder{}
		ts := httptest.NewServer(hh)
		t.Cleanup(ts.Close)
		holders[n] = hh
		tc.urls[n] = ts.URL
		tc.servers[n] = ts
	}
	for _, n := range names {
		peers := make(map[string]string, len(names)-1)
		for _, m := range names {
			if m != n {
				peers[m] = tc.urls[m]
			}
		}
		cc := &ClusterConfig{
			NodeName:      n,
			AdvertiseURL:  tc.urls[n],
			Peers:         peers,
			Replicas:      replicas,
			SyncReplicate: true,
		}
		if tune != nil {
			tune(cc)
		}
		svc, err := New(Config{
			NumVMs: 4, NumHosts: 3, Seed: 7,
			CheckpointDir: t.TempDir(),
			Cluster:       cc,
		})
		if err != nil {
			t.Fatalf("building node %s: %v", n, err)
		}
		holders[n].set(svc.Handler())
		tc.svcs[n] = svc
	}
	return tc
}

// idOwnedBy finds a session ID the given node owns under the full ring.
func (tc *testCluster) idOwnedBy(t *testing.T, anyNode, owner string) string {
	t.Helper()
	node := tc.svcs[anyNode].ClusterNode()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		if node.Owner(id).Name == owner {
			return id
		}
	}
	t.Fatalf("no session ID owned by %s in 4096 tries", owner)
	return ""
}

// markDead drives a peer to dead on every surviving node's membership.
func (tc *testCluster) markDead(dead string) {
	for n, svc := range tc.svcs {
		if n == dead {
			continue
		}
		mem := svc.ClusterNode().Membership()
		for i := 0; i < cluster.DefFailAfter; i++ {
			mem.ReportFailure(dead)
		}
	}
}

// scrapeMetric reads one unlabelled sample from a node's GET /metrics.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: sample %q: %v", name, line, err)
			}
			return f
		}
	}
	t.Fatalf("%s: no sample on %s/metrics", name, base)
	return 0
}

// doJSON issues one request with optional headers and decodes the reply.
func doJSON(t *testing.T, method, url string, body any, hdr map[string]string, out any) *http.Response {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	} else {
		reader = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", method, url, err)
		}
	}
	return resp
}

var clusterSpec = SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 11}

func TestClusterInfoAndRouteAgree(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b", "c")

	var owners []string
	for _, n := range tc.names {
		var info ClusterInfoResponse
		resp := doJSON(t, http.MethodGet, tc.urls[n]+"/v2/cluster", nil, nil, &info)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster info on %s: HTTP %d", n, resp.StatusCode)
		}
		if !info.Enabled || info.Self != n || len(info.Nodes) != 3 {
			t.Fatalf("node %s info = %+v", n, info)
		}
		if info.Leader != "a" {
			t.Fatalf("node %s sees leader %q, want a (lowest alive name)", n, info.Leader)
		}
		var route ClusterRouteResponse
		doJSON(t, http.MethodGet, tc.urls[n]+"/v2/cluster/route/tenant-7", nil, nil, &route)
		if len(route.Replicas) != 2 {
			t.Fatalf("node %s replica set %v, want 2 entries", n, route.Replicas)
		}
		owners = append(owners, route.Owner.Name)
		if route.Local != (route.Owner.Name == n) {
			t.Fatalf("node %s: local=%t but owner=%s", n, route.Local, route.Owner.Name)
		}
	}
	if owners[0] != owners[1] || owners[1] != owners[2] {
		t.Fatalf("nodes disagree on owner: %v", owners)
	}
}

func TestClusterEndpointsUnclustered(t *testing.T) {
	_, ts := newSessionService(t, 0)

	var info ClusterInfoResponse
	resp := doJSON(t, http.MethodGet, ts.URL+"/v2/cluster", nil, nil, &info)
	if resp.StatusCode != http.StatusOK || info.Enabled {
		t.Fatalf("unclustered info: HTTP %d, enabled=%t", resp.StatusCode, info.Enabled)
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v2/cluster/route/x"},
		{http.MethodPost, "/v2/cluster/rebalance"},
		{http.MethodGet, "/v2/cluster/replicas/x"},
		{http.MethodDelete, "/v2/cluster/replicas/x"},
	} {
		resp := doJSON(t, probe.method, ts.URL+probe.path, nil, nil, nil)
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("%s %s unclustered: HTTP %d, want 412", probe.method, probe.path, resp.StatusCode)
		}
	}
}

func TestClusterProxiesToOwner(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b", "c")
	id := tc.idOwnedBy(t, "a", "b")

	// Create through a node that does NOT own the session: the request
	// must be proxied to b and say so in the response header.
	var info SessionInfo
	resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("proxied create: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Megh-Proxied"); got != "b" {
		t.Fatalf("proxied create header = %q, want b", got)
	}

	// The session lives on b, not on a.
	if _, err := tc.svcs["b"].mgr.get(id); err != nil {
		t.Fatalf("owner b has no session record: %v", err)
	}
	if _, err := tc.svcs["a"].mgr.get(id); err == nil {
		t.Fatal("non-owner a has a local session record; create was not proxied")
	}

	// Decides through any node reach the same learner; direct requests to
	// the owner carry no proxy marker.
	var first, out DecideResponse
	resp = doJSON(t, http.MethodPost, tc.urls["c"]+"/v2/sessions/"+id+"/decide",
		sessionWorld(4, 3, 0), nil, &first)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Megh-Proxied") != "b" {
		t.Fatalf("proxied decide: HTTP %d, proxied=%q", resp.StatusCode, resp.Header.Get("X-Megh-Proxied"))
	}
	resp = doJSON(t, http.MethodPost, tc.urls["b"]+"/v2/sessions/"+id+"/decide",
		sessionWorld(4, 3, 1), nil, &out)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Megh-Proxied") != "" {
		t.Fatalf("direct decide: HTTP %d, proxied=%q", resp.StatusCode, resp.Header.Get("X-Megh-Proxied"))
	}
	// Each entry node counts the requests it relayed; the owner relayed none.
	for n, want := range map[string]int64{"a": 1, "b": 0, "c": 1} {
		c := tc.svcs[n].cluster
		if p, e := c.cProxied.Value(), c.cProxyErrs.Value(); p != want || e != 0 {
			t.Fatalf("node %s proxied %d requests with %d errors, want %d and 0", n, p, e, want)
		}
	}

	// The entry node forwards Accept: a like session's first decide, asked
	// for in binary through the hop, comes back binary and means what the
	// JSON answer above said.
	twin := tc.idOwnedBy(t, "c", "a")
	doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+twin, clusterSpec, nil, nil)
	resp = doJSON(t, http.MethodPost, tc.urls["c"]+"/v2/sessions/"+twin+"/decide",
		sessionWorld(4, 3, 0), map[string]string{"Accept": elidedMediaType}, nil)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var bin DecideResponse
	if ct := resp.Header.Get("Content-Type"); resp.Header.Get("X-Megh-Proxied") != "a" || ct != elidedMediaType {
		t.Fatalf("proxied binary decide: HTTP %d under %q, proxied=%q", resp.StatusCode, ct, resp.Header.Get("X-Megh-Proxied"))
	}
	if err := decodeAnswer(raw, &bin); err != nil || !reflect.DeepEqual(bin, first) {
		t.Fatalf("proxied binary answer %x decodes to %+v (%v), the JSON answer was %+v", raw, bin, err, first)
	}
}

func TestClusterForwardedServedLocally(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	id := tc.idOwnedBy(t, "a", "b")

	// A request already marked forwarded is served where it lands, even by
	// a non-owner — the one-hop rule that makes proxy loops impossible.
	resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec,
		map[string]string{"X-Megh-Forwarded": "b"}, nil)
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-Megh-Proxied") != "" {
		t.Fatalf("forwarded create: HTTP %d, proxied=%q", resp.StatusCode, resp.Header.Get("X-Megh-Proxied"))
	}
	if _, err := tc.svcs["a"].mgr.get(id); err != nil {
		t.Fatalf("forwarded create did not land locally on a: %v", err)
	}
}

// decideAndCheckpoint advances the session via url and checkpoints it,
// returning the primary checkpoint image bytes from the owning service.
func decideAndCheckpoint(t *testing.T, url, id string, owner *Service, steps int) []byte {
	t.Helper()
	for step := 0; step < steps; step++ {
		resp := doJSON(t, http.MethodPost, url+"/v2/sessions/"+id+"/decide",
			sessionWorld(4, 3, step), nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide step %d: HTTP %d", step, resp.StatusCode)
		}
	}
	resp := doJSON(t, http.MethodPost, url+"/v2/sessions/"+id+"/checkpoint", struct{}{}, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: HTTP %d", resp.StatusCode)
	}
	img, err := os.ReadFile(owner.mgr.checkpointPath(id))
	if err != nil {
		t.Fatalf("reading primary checkpoint: %v", err)
	}
	return img
}

func TestClusterCheckpointReplicationByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b", "c")
	id := tc.idOwnedBy(t, "a", "a")

	resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	img := decideAndCheckpoint(t, tc.urls["a"], id, tc.svcs["a"], 5)

	owners := tc.svcs["a"].ClusterNode().Owners(id)
	if len(owners) != 2 || owners[0].Name != "a" {
		t.Fatalf("replica set %v, want [a successor]", owners)
	}
	successor := owners[1].Name

	// SyncReplicate: the push landed before the checkpoint call returned.
	replica, err := os.ReadFile(tc.svcs[successor].cluster.replicaPath(id))
	if err != nil {
		t.Fatalf("successor %s has no replica: %v", successor, err)
	}
	if !bytes.Equal(img, replica) {
		t.Fatalf("replica on %s differs from primary (%d vs %d bytes)", successor, len(replica), len(img))
	}
	ca := tc.svcs["a"].cluster
	if p, e := ca.cReplPush.Value(), ca.cReplErrs.Value(); p != 1 || e != 0 {
		t.Fatalf("one checkpoint, one successor: %d pushes and %d errors, want 1 and 0", p, e)
	}

	// The replica is also served back over the API.
	req, _ := http.NewRequest(http.MethodGet, tc.urls[successor]+"/v2/cluster/replicas/"+id, nil)
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("replica GET: HTTP %d", rresp.StatusCode)
	}

	// A checkpoint whose successor is down still succeeds; the push that
	// could not land is counted as an error, not as a replication.
	tc.servers[successor].Close()
	if resp := doJSON(t, http.MethodPost, tc.urls["a"]+"/v2/sessions/"+id+"/checkpoint", struct{}{}, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint with the successor down: HTTP %d", resp.StatusCode)
	}
	if p, e := ca.cReplPush.Value(), ca.cReplErrs.Value(); p != 1 || e != 1 {
		t.Fatalf("after a push to a dead successor: %d pushes and %d errors, want 1 and 1", p, e)
	}
}

func TestClusterFailoverPromotesReplica(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b", "c")
	id := tc.idOwnedBy(t, "a", "a")

	resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	img := decideAndCheckpoint(t, tc.urls["a"], id, tc.svcs["a"], 6)

	// The consistent-hash property under test: when the owner's points
	// leave the ring, the key shifts to exactly the next distinct
	// clockwise node — the successor already holding the replica.
	successor := tc.svcs["a"].ClusterNode().Owners(id)[1].Name

	// Owner dies; survivors mark it dead.
	tc.servers["a"].Close()
	tc.markDead("a")
	if got := tc.svcs[successor].ClusterNode().Owner(id).Name; got != successor {
		t.Fatalf("after owner death, %q owns %s, want the replica-holding successor %q", got, id, successor)
	}
	// Both survivors see two nodes in the alive set's second generation,
	// and b (now the lowest alive name) leads.
	for n, leader := range map[string]float64{"b": 1, "c": 0} {
		assertClusterGauges(t, tc.urls[n], 2, leader, 2)
	}

	// The new owner never saw this session. Re-asserting it restores the
	// learner from the promoted replica rather than starting fresh.
	resp = doJSON(t, http.MethodPut, tc.urls[successor]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("failover create on %s: HTTP %d", successor, resp.StatusCode)
	}

	// Exact-RNG checkpoints make the failover verifiable: re-checkpointing
	// the restored learner must reproduce the dead owner's bytes.
	resp = doJSON(t, http.MethodPost, tc.urls[successor]+"/v2/sessions/"+id+"/checkpoint",
		struct{}{}, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover checkpoint: HTTP %d", resp.StatusCode)
	}
	restored, err := os.ReadFile(tc.svcs[successor].mgr.checkpointPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, restored) {
		t.Fatalf("restored learner differs from dead owner's checkpoint (%d vs %d bytes)",
			len(restored), len(img))
	}

	var info SessionInfo
	doJSON(t, http.MethodGet, tc.urls[successor]+"/v2/sessions/"+id, nil, nil, &info)
	if info.Restores == 0 {
		t.Fatalf("failover session reports no restore: %+v", info)
	}
	for _, n := range []string{"b", "c"} {
		want := int64(0)
		if n == successor {
			want = 1
		}
		if got := tc.svcs[n].cluster.cPromoted.Value(); got != want {
			t.Fatalf("node %s promoted %d replicas, want %d", n, got, want)
		}
	}

	// a answering again brings it back into b's view: a third generation,
	// and b hands leadership back.
	tc.svcs["b"].ClusterNode().Membership().ReportSuccess("a")
	assertClusterGauges(t, tc.urls["b"], 3, 0, 3)
}

// assertClusterGauges scrapes a node's membership gauges.
func assertClusterGauges(t *testing.T, base string, alive, leader, epoch float64) {
	t.Helper()
	got := [3]float64{
		scrapeMetric(t, base, "megh_cluster_nodes_alive"),
		scrapeMetric(t, base, "megh_cluster_is_leader"),
		scrapeMetric(t, base, "megh_cluster_epoch"),
	}
	if got != [3]float64{alive, leader, epoch} {
		t.Fatalf("%s: nodes_alive, is_leader, epoch = %v, want [%g %g %g]", base, got, alive, leader, epoch)
	}
}

func TestClusterRebalanceMovesMisplacedSession(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	id := tc.idOwnedBy(t, "a", "b")

	// Force the session onto the wrong node via the forwarded loop-guard,
	// then let it learn something worth moving.
	fwd := map[string]string{"X-Megh-Forwarded": "test"}
	resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, fwd, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	for step := 0; step < 4; step++ {
		doJSON(t, http.MethodPost, tc.urls["a"]+"/v2/sessions/"+id+"/decide",
			sessionWorld(4, 3, step), fwd, nil)
	}

	var moved ClusterRebalanceResponse
	resp = doJSON(t, http.MethodPost, tc.urls["a"]+"/v2/cluster/rebalance", nil, fwd, &moved)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: HTTP %d", resp.StatusCode)
	}
	if moved.Checked != 1 || moved.Moved != 1 || moved.Errors != 0 {
		t.Fatalf("rebalance = %+v, want checked=1 moved=1 errors=0", moved)
	}
	if got := tc.svcs["a"].cluster.cRebalanced.Value(); got != 1 {
		t.Fatalf("rebalanced sessions = %d, want 1", got)
	}

	// The learner left a; the checkpoint image landed in b's replica store.
	sess, err := tc.svcs["a"].mgr.get(id)
	if err != nil {
		t.Fatalf("session record should survive the move: %v", err)
	}
	sess.mu.Lock()
	live := sess.learner != nil
	sess.mu.Unlock()
	if live {
		t.Fatal("rebalance left the learner resident on the wrong node")
	}
	if _, err := os.Stat(tc.svcs["b"].cluster.replicaPath(id)); err != nil {
		t.Fatalf("new owner b has no replica after rebalance: %v", err)
	}

	// b restores the moved learner from the pushed image, byte-identically.
	img, err := os.ReadFile(tc.svcs["a"].mgr.checkpointPath(id))
	if err != nil {
		t.Fatal(err)
	}
	resp = doJSON(t, http.MethodPut, tc.urls["b"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create on new owner: HTTP %d", resp.StatusCode)
	}
	doJSON(t, http.MethodPost, tc.urls["b"]+"/v2/sessions/"+id+"/checkpoint", struct{}{}, nil, nil)
	restored, err := os.ReadFile(tc.svcs["b"].mgr.checkpointPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, restored) {
		t.Fatal("rebalanced learner does not reproduce the source checkpoint bytes")
	}

	// A second sweep is a no-op: nothing misplaced is resident anymore.
	var again ClusterRebalanceResponse
	doJSON(t, http.MethodPost, tc.urls["a"]+"/v2/cluster/rebalance", nil, fwd, &again)
	if again.Moved != 0 {
		t.Fatalf("second sweep moved %d sessions, want 0", again.Moved)
	}
	if got := tc.svcs["a"].cluster.cRebalanced.Value(); got != 1 {
		t.Fatalf("rebalanced sessions after a no-op sweep = %d, want 1", got)
	}
}

func TestClusterSessionDeletePurgesReplicas(t *testing.T) {
	tc := newTestCluster(t, 3, "a", "b", "c")
	id := tc.idOwnedBy(t, "a", "a")

	doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	decideAndCheckpoint(t, tc.urls["a"], id, tc.svcs["a"], 3)
	for _, n := range []string{"b", "c"} {
		if _, err := os.Stat(tc.svcs[n].cluster.replicaPath(id)); err != nil {
			t.Fatalf("replicas=3 should cover node %s: %v", n, err)
		}
	}

	resp := doJSON(t, http.MethodDelete, tc.urls["b"]+"/v2/sessions/"+id, nil, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	tc.svcs["a"].WaitReplication()
	for _, n := range []string{"b", "c"} {
		if _, err := os.Stat(tc.svcs[n].cluster.replicaPath(id)); !os.IsNotExist(err) {
			t.Fatalf("node %s still holds a replica of the deleted session (err=%v)", n, err)
		}
	}
}

func TestClusterReplicaPutRejectsGarbage(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")

	req, _ := http.NewRequest(http.MethodPut, tc.urls["a"]+"/v2/cluster/replicas/evil",
		bytes.NewReader([]byte("not a checkpoint")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage replica PUT: HTTP %d, want 400", resp.StatusCode)
	}
	if _, err := os.Stat(tc.svcs["a"].cluster.replicaPath("evil")); !os.IsNotExist(err) {
		t.Fatal("garbage image landed in the replica store")
	}
}

// TestClusterClientRetryPolicyReachesOwner: a 503 the ring owner answers is
// relayed by the entry node's proxy, retried under the entry client's policy
// (set before or after the view was made), and counted once on its counter.
func TestClusterClientRetryPolicyReachesOwner(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	id := tc.idOwnedBy(t, "a", "b")
	var calls atomic.Int64
	owner := tc.svcs["b"].Handler()
	tc.servers["b"].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "blip", http.StatusServiceUnavailable)
			return
		}
		owner.ServeHTTP(w, r)
	})

	ctx := context.Background()
	c := NewClient(tc.urls["a"], nil)
	c.SetRetryPolicy(1, 0)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	sc := c.Session(id)
	if _, err := sc.Create(ctx, clusterSpec); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("one 503 under a one-attempt policy: err %v, want the 503", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("owner saw %d requests, want 1", n)
	}

	calls.Store(0)
	c.SetRetryPolicy(2, time.Millisecond)
	if _, err := sc.Create(ctx, clusterSpec); err != nil {
		t.Fatalf("one 503 under a two-attempt policy must not surface: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("owner saw %d requests, want 2", n)
	}
	if got := reg.Counter("megh_client_retries_total", "", nil).Value(); got != 1 {
		t.Fatalf("retry counter = %d, want 1", got)
	}
	// Every attempt went through a's proxy: the 503s are relayed, not errors.
	if p, e := tc.svcs["a"].cluster.cProxied.Value(), tc.svcs["a"].cluster.cProxyErrs.Value(); p != 3 || e != 0 {
		t.Fatalf("entry node proxied %d requests with %d errors, want 3 and 0", p, e)
	}
}

func TestClusterHeartbeatDrivesFailoverRebalance(t *testing.T) {
	// A live heartbeat loop on every node, fast enough to converge within
	// the test: node c dies, the survivors' probes mark it dead, and the
	// leader fans out a rebalance that moves the misplaced session.
	tc := newTestClusterTuned(t, 2, func(cc *ClusterConfig) {
		cc.HeartbeatEvery = 10 * time.Millisecond
		cc.FailAfter = 2
		cc.ProbeTimeout = 250 * time.Millisecond
	}, "a", "b", "c")

	// Plant a session on a that b owns, via the forwarded loop-guard.
	id := tc.idOwnedBy(t, "a", "b")
	fwd := map[string]string{"X-Megh-Forwarded": "test"}
	doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, fwd, nil)
	doJSON(t, http.MethodPost, tc.urls["a"]+"/v2/sessions/"+id+"/decide",
		sessionWorld(4, 3, 0), fwd, nil)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	tc.servers["c"].Close()
	// One probe round by hand: c's probe fails and b's does not, and one
	// failure is below FailAfter, so every node is still alive.
	tc.svcs["a"].cluster.probeRound(ctx)
	if got := tc.svcs["a"].cluster.cProbeFails.Value(); got != 1 {
		t.Fatalf("probe failures after one round = %d, want 1", got)
	}
	assertClusterGauges(t, tc.urls["a"], 3, 1, 1)
	for _, n := range []string{"a", "b"} {
		go tc.svcs[n].StartCluster(ctx)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		aliveOnA := len(tc.svcs["a"].ClusterNode().Membership().Alive())
		sess, err := tc.svcs["a"].mgr.get(id)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		live := sess.learner != nil
		sess.mu.Unlock()
		_, replicaErr := os.Stat(tc.svcs["b"].cluster.replicaPath(id))
		if aliveOnA == 2 && !live && replicaErr == nil {
			return // c is dead, the leader's sweep moved the session to b
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("heartbeat loop never converged: peer death + leader rebalance not observed")
}

func TestClusterAsyncReplication(t *testing.T) {
	tc := newTestClusterTuned(t, 2, func(cc *ClusterConfig) {
		cc.SyncReplicate = false
	}, "a", "b")
	id := tc.idOwnedBy(t, "a", "a")

	doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	img := decideAndCheckpoint(t, tc.urls["a"], id, tc.svcs["a"], 3)
	tc.svcs["a"].WaitReplication()

	replica, err := os.ReadFile(tc.svcs["b"].cluster.replicaPath(id))
	if err != nil {
		t.Fatalf("async replica never landed: %v", err)
	}
	if !bytes.Equal(img, replica) {
		t.Fatal("async replica differs from primary checkpoint")
	}

	// Async delete broadcast also drains through WaitReplication.
	doJSON(t, http.MethodDelete, tc.urls["a"]+"/v2/sessions/"+id, nil, nil, nil)
	tc.svcs["a"].WaitReplication()
	if _, err := os.Stat(tc.svcs["b"].cluster.replicaPath(id)); !os.IsNotExist(err) {
		t.Fatalf("replica survived async delete broadcast (err=%v)", err)
	}
}

func TestClusterProxyToDeadOwnerIs502(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	id := tc.idOwnedBy(t, "a", "b")
	tc.servers["b"].Close()

	resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("proxy to dead owner: HTTP %d, want 502", resp.StatusCode)
	}
	// Each failed proxy counts against the owner; after FailAfter the ring
	// drops it and a serves the session itself.
	for i := 0; i < cluster.DefFailAfter; i++ {
		doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	}
	// One of the retries already created the session locally once b left
	// the ring, so this re-assert answers 200 (or 201 if it is the first
	// to land) — either way locally, with no proxy marker.
	resp = doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil)
	if (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated) ||
		resp.Header.Get("X-Megh-Proxied") != "" {
		t.Fatalf("after owner declared dead: HTTP %d proxied=%q, want local 200/201",
			resp.StatusCode, resp.Header.Get("X-Megh-Proxied"))
	}
	if _, err := tc.svcs["a"].mgr.get(id); err != nil {
		t.Fatalf("session not served locally after owner death: %v", err)
	}
	// FailAfter failed proxies, then none: the ring dropped b.
	if e, p := tc.svcs["a"].cluster.cProxyErrs.Value(), tc.svcs["a"].cluster.cProxied.Value(); e != cluster.DefFailAfter || p != 0 {
		t.Fatalf("proxy errors %d, proxied %d; want %d and 0", e, p, cluster.DefFailAfter)
	}
}

// TestClusterProxyCarriesRequestID: the owner of a proxied request is sent
// the X-Request-ID the caller gets back — the caller's own, or the one the
// entry node minted when the caller sent none — so the owner's exemplars and
// trace name the request the caller knows.
func TestClusterProxyCarriesRequestID(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	id := tc.idOwnedBy(t, "a", "b")
	var mu sync.Mutex
	var sent []string
	owner := tc.svcs["b"].Handler()
	tc.servers["b"].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sent = append(sent, r.Header.Get("X-Request-ID"))
		mu.Unlock()
		owner.ServeHTTP(w, r)
	})
	if resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}

	for _, c := range []struct {
		route string
		body  any
	}{
		{"decide", sessionWorld(4, 3, 0)},
		{"checkpoint", struct{}{}},
	} {
		for _, callerID := range []string{"", "caller-" + c.route} {
			mu.Lock()
			sent = nil
			mu.Unlock()
			var hdr map[string]string
			if callerID != "" {
				hdr = map[string]string{"X-Request-ID": callerID}
			}
			resp := doJSON(t, http.MethodPost, tc.urls["a"]+"/v2/sessions/"+id+"/"+c.route, c.body, hdr, nil)
			got := resp.Header.Get("X-Request-ID")
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Megh-Proxied") != "b" || got == "" ||
				(callerID != "" && got != callerID) {
				t.Fatalf("%s with caller ID %q: HTTP %d, proxied=%q, X-Request-ID %q",
					c.route, callerID, resp.StatusCode, resp.Header.Get("X-Megh-Proxied"), got)
			}
			mu.Lock()
			ownerSaw := sent
			mu.Unlock()
			if len(ownerSaw) != 1 || ownerSaw[0] != got {
				t.Fatalf("%s with caller ID %q: the caller got %q, the owner was sent %q", c.route, callerID, got, ownerSaw)
			}
		}
	}
}

func TestClusterBadSessionIDsOnClusterAPI(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v2/cluster/route/bad!id"},
		{http.MethodPut, "/v2/cluster/replicas/bad!id"},
		{http.MethodGet, "/v2/cluster/replicas/bad!id"},
		{http.MethodDelete, "/v2/cluster/replicas/bad!id"},
	} {
		resp := doJSON(t, probe.method, tc.urls["a"]+probe.path, nil, nil, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: HTTP %d, want 400", probe.method, probe.path, resp.StatusCode)
		}
	}
	// Replica GET for a session nobody checkpointed is a clean 404, and
	// DELETE of the same is an idempotent 204.
	resp := doJSON(t, http.MethodGet, tc.urls["a"]+"/v2/cluster/replicas/ghost", nil, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost replica GET: HTTP %d, want 404", resp.StatusCode)
	}
	resp = doJSON(t, http.MethodDelete, tc.urls["a"]+"/v2/cluster/replicas/ghost", nil, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ghost replica DELETE: HTTP %d, want 204", resp.StatusCode)
	}
}

func TestClusterClientMethodsAndAccessors(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	if !tc.svcs["a"].Clustered() {
		t.Fatal("Clustered() = false on a cluster node")
	}
	ctx := context.Background()
	c := NewClient(tc.urls["a"], nil)

	route, err := c.ClusterRoute(ctx, "tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	if route.Owner.Name != tc.svcs["a"].ClusterNode().Owner("tenant-1").Name {
		t.Fatalf("ClusterRoute owner %q disagrees with the node", route.Owner.Name)
	}
	// The ID is one path segment: "a?b" is an invalid ID, not the route of
	// "a" with a query string.
	var se *statusError
	if route, err := c.ClusterRoute(ctx, "a?b"); !errors.As(err, &se) || se.code != http.StatusBadRequest {
		t.Fatalf(`ClusterRoute("a?b") = %+v, %v; want an HTTP 400 error`, route, err)
	}
	if _, err := c.ClusterRebalance(ctx); err != nil {
		t.Fatal(err)
	}

	info, err := c.ClusterInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != tc.svcs["a"].ClusterNode().Epoch() {
		t.Fatalf("client epoch %d != node epoch %d", info.Epoch, tc.svcs["a"].ClusterNode().Epoch())
	}

	// StartCluster on an unclustered service is a no-op, not a hang.
	svc, ts := newSessionService(t, 0)
	if info, err := NewClient(ts.URL, nil).ClusterInfo(ctx); err != nil || info.Enabled {
		t.Fatalf("unclustered service reported as %+v, %v", info, err)
	}
	done := make(chan struct{})
	go func() { svc.StartCluster(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("StartCluster on an unclustered service did not return")
	}
	if svc.ClusterNode() != nil {
		t.Fatal("unclustered service reports a cluster node")
	}
}

func TestClusterReplicaPutOversizeAndUnvalidated(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")

	// An oversize image is refused before validation (413). Faking the
	// size via Content-Length keeps the test cheap; the handler reads
	// through a limit reader either way.
	req, _ := http.NewRequest(http.MethodPut, tc.urls["a"]+"/v2/cluster/replicas/big",
		bytes.NewReader(bytes.Repeat([]byte{0}, 4096)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-filled replica PUT: HTTP %d, want 400 (not a checkpoint)", resp.StatusCode)
	}
}

func TestClusterRequiresCheckpointDir(t *testing.T) {
	_, err := New(Config{
		NumVMs: 4, NumHosts: 3,
		Cluster: &ClusterConfig{NodeName: "a", AdvertiseURL: "http://localhost:1"},
	})
	if err == nil {
		t.Fatal("cluster mode without a checkpoint dir should fail")
	}
	_, err = New(Config{
		NumVMs: 4, NumHosts: 3, CheckpointDir: t.TempDir(),
		Cluster: &ClusterConfig{NodeName: "bad name!", AdvertiseURL: "http://localhost:1"},
	})
	if err == nil {
		t.Fatal("invalid node name should fail")
	}
}
