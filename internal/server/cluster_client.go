package server

import (
	"context"
	"net/http"
	"net/url"

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

// Refresh reads the membership view from the client's own base (GET
// /v2/cluster) and rebuilds the consistent-hash ring the servers use, so
// the views Session hands out afterwards go straight to each session's
// owner and save the server-side proxy hop. An unclustered answer clears
// the view. A stale view is never wrong, only slower: a request landing on
// the old owner is proxied one hop to the new one, so Refresh is an
// optimisation cadence — on a timer or after errors — not a correctness
// requirement.
func (c *Client) Refresh(ctx context.Context) error {
	info, err := c.ClusterInfo(ctx)
	if err != nil {
		return err
	}
	var ring *cluster.Ring
	var nodes map[string]*Client
	if info.Enabled {
		alive := make([]string, 0, len(info.Nodes))
		nodes = make(map[string]*Client, len(info.Nodes))
		for _, n := range info.Nodes {
			if n.State != cluster.StateAlive.String() {
				continue
			}
			alive = append(alive, n.Name)
			if n.URL != "" {
				nodes[n.Name] = &Client{base: n.URL, conn: c.conn}
			}
		}
		ring = cluster.NewRing(alive, info.VNodes)
	}
	c.mu.Lock()
	c.ring, c.nodes = ring, nodes
	c.mu.Unlock()
	return nil
}

// node returns the client for the node owning session id under the view
// the last Refresh adopted: c itself with no clustered view, for an owner
// whose URL is unknown, and for the default session, which every node
// serves locally.
func (c *Client) node(id string) *Client {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.ring == nil || id == DefaultSessionID {
		return c
	}
	if n, ok := c.nodes[c.ring.Owner(id)]; ok {
		return n
	}
	return c
}
