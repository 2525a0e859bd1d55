package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"megh/internal/cluster"
)

// --- cluster methods on Client ------------------------------------------

// ClusterInfo fetches GET /v2/cluster: the node's membership view. An
// unclustered service answers with Enabled=false rather than an error, so
// one probe discovers the mode.
func (c *Client) ClusterInfo(ctx context.Context) (ClusterInfoResponse, error) {
	var out ClusterInfoResponse
	err := c.send(ctx, http.MethodGet, "/v2/cluster", nil, &out)
	return out, err
}

// ClusterRoute asks the node where a session ID lands under its current
// ring, whether or not the session exists yet.
func (c *Client) ClusterRoute(ctx context.Context, id string) (ClusterRouteResponse, error) {
	var out ClusterRouteResponse
	err := c.send(ctx, http.MethodGet, "/v2/cluster/route/"+url.PathEscape(id), nil, &out)
	return out, err
}

// ClusterRebalance triggers one rebalance sweep on the node: sessions it
// no longer owns are checkpointed, handed to their ring owners, and
// dropped locally.
func (c *Client) ClusterRebalance(ctx context.Context) (ClusterRebalanceResponse, error) {
	var out ClusterRebalanceResponse
	err := c.send(ctx, http.MethodPost, "/v2/cluster/rebalance", struct{}{}, &out)
	return out, err
}

// --- ClusterClient ------------------------------------------------------

// ClusterClient is a client-side router for a meghd cluster. It pulls the
// membership view from GET /v2/cluster, rebuilds the same consistent-hash
// ring the servers use, and hands out SessionClients aimed straight at
// each session's owner — saving the server-side proxy hop on every
// request. A stale view is never wrong, only slower: a request landing on
// the old owner is proxied one hop to the new one, so Refresh is an
// optimisation cadence, not a correctness requirement.
//
// Against an unclustered service the router degrades to a plain
// passthrough of the seed node.
type ClusterClient struct {
	hc    *http.Client
	seeds []*Client

	mu      sync.RWMutex
	ring    *cluster.Ring      // nil until the first successful Refresh on a clustered service
	clients map[string]*Client // node name → client, from the last Refresh
	epoch   int64
	leader  string
}

// NewClusterClient builds a router over the given seed URLs (any subset
// of the cluster; one reachable seed suffices) and performs an initial
// Refresh. A nil httpClient means http.DefaultClient.
func NewClusterClient(ctx context.Context, seedURLs []string, httpClient *http.Client) (*ClusterClient, error) {
	if len(seedURLs) == 0 {
		return nil, errors.New("server: cluster client needs at least one seed URL")
	}
	cc := &ClusterClient{hc: httpClient}
	for _, u := range seedURLs {
		cc.seeds = append(cc.seeds, NewClient(u, httpClient))
	}
	if err := cc.Refresh(ctx); err != nil {
		return nil, err
	}
	return cc, nil
}

// Refresh re-pulls the membership view from the first reachable seed and
// rebuilds the routing ring. Call it on a timer (or after errors) to chase
// membership changes; between refreshes the server-side proxy covers any
// staleness.
func (cc *ClusterClient) Refresh(ctx context.Context) error {
	var lastErr error
	for _, seed := range cc.seeds {
		info, err := seed.ClusterInfo(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		cc.adopt(info)
		return nil
	}
	return fmt.Errorf("server: cluster refresh: no seed reachable: %w", lastErr)
}

// adopt installs a membership view as the routing state.
func (cc *ClusterClient) adopt(info ClusterInfoResponse) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if !info.Enabled {
		// Single-node service: route everything to the seed that answered.
		cc.ring = nil
		cc.clients = nil
		cc.epoch = 0
		cc.leader = ""
		return
	}
	alive := make([]string, 0, len(info.Nodes))
	clients := make(map[string]*Client, len(info.Nodes))
	for _, n := range info.Nodes {
		if n.State != cluster.StateAlive.String() || n.URL == "" {
			continue
		}
		alive = append(alive, n.Name)
		// Reuse the previous node client where the URL is unchanged, so
		// connection pools survive refreshes.
		if prev, ok := cc.clients[n.Name]; ok && prev.base == n.URL {
			clients[n.Name] = prev
		} else {
			clients[n.Name] = NewClient(n.URL, cc.hc)
		}
	}
	cc.ring = cluster.NewRing(alive, info.VNodes)
	cc.clients = clients
	cc.epoch = info.Epoch
	cc.leader = info.Leader
}

// Node returns the client for the node owning session id — the seed
// passthrough when the service is unclustered or the owner's URL is
// unknown. The DefaultSessionID always maps to the seed: the /v1 shim
// session is per-node and never routed.
func (cc *ClusterClient) Node(id string) *Client {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	if cc.ring == nil || id == DefaultSessionID {
		return cc.seeds[0]
	}
	if c, ok := cc.clients[cc.ring.Owner(id)]; ok {
		return c
	}
	return cc.seeds[0]
}

// Session returns a session view aimed at the session's ring owner.
func (cc *ClusterClient) Session(id string) *SessionClient {
	return cc.Node(id).Session(id)
}

// Leader returns a client for the current leader, falling back to the
// seed when no leader is known.
func (cc *ClusterClient) Leader() *Client {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	if c, ok := cc.clients[cc.leader]; ok {
		return c
	}
	return cc.seeds[0]
}

// Epoch returns the alive-set generation of the adopted view (0 before
// the first clustered Refresh).
func (cc *ClusterClient) Epoch() int64 {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.epoch
}

// Clustered reports whether the adopted view came from a clustered
// service.
func (cc *ClusterClient) Clustered() bool {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.ring != nil
}
