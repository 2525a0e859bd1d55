package server

import (
	"context"
	"net/http"
	"net/url"
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
