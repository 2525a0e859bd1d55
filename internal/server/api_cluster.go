package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"

	"megh/internal/cluster"
	"megh/internal/core"
)

// ClusterNode describes one node in /v2/cluster bodies.
type ClusterNode struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"`
	// State is this node's local view: "alive", "suspect", or "dead".
	State string `json:"state"`
	// Fails is the current consecutive heartbeat-failure streak.
	Fails  int  `json:"fails,omitempty"`
	Leader bool `json:"leader,omitempty"`
	Self   bool `json:"self,omitempty"`
}

// ClusterInfoResponse is the GET /v2/cluster body. Enabled false means
// the service runs single-node and every other field is zero.
type ClusterInfoResponse struct {
	Enabled  bool          `json:"enabled"`
	Self     string        `json:"self,omitempty"`
	Leader   string        `json:"leader,omitempty"`
	Epoch    int64         `json:"epoch,omitempty"`
	Replicas int           `json:"replicas,omitempty"`
	VNodes   int           `json:"vnodes,omitempty"`
	Nodes    []ClusterNode `json:"nodes,omitempty"`
}

// ClusterRouteResponse is the GET /v2/cluster/route/{id} body: where a
// session ID lands under the current ring, whether or not the session
// exists yet.
type ClusterRouteResponse struct {
	ID    string      `json:"id"`
	Owner ClusterNode `json:"owner"`
	// Replicas is the full replica set, owner first.
	Replicas []ClusterNode `json:"replicas"`
	// Local is true when this node is the owner.
	Local bool `json:"local"`
}

// ClusterReplicaResponse acknowledges a PUT /v2/cluster/replicas/{id}.
type ClusterReplicaResponse struct {
	ID    string `json:"id"`
	Bytes int    `json:"bytes"`
}

// ClusterRebalanceResponse reports one rebalance sweep: sessions checked
// because this node no longer owns them, sessions successfully handed to
// their owner's replica set, and failures left for the next sweep.
type ClusterRebalanceResponse struct {
	Checked int `json:"checked"`
	Moved   int `json:"moved"`
	Errors  int `json:"errors"`
}

// handleClusterInfo serves GET /v2/cluster. Unlike the other cluster
// endpoints it answers on unclustered services too (enabled=false), so
// callers can discover the mode with one probe.
func (s *Service) handleClusterInfo(w http.ResponseWriter, _ *http.Request) {
	c := s.cluster
	if c == nil {
		writeJSON(w, http.StatusOK, ClusterInfoResponse{})
		return
	}
	c.publishGauges()
	leader := c.node.Leader()
	self := c.node.Self().Name
	resp := ClusterInfoResponse{
		Enabled:  true,
		Self:     self,
		Leader:   leader,
		Epoch:    c.node.Epoch(),
		Replicas: c.node.Replicas(),
		VNodes:   cluster.DefVNodes,
	}
	for _, row := range c.node.Membership().Table() {
		resp.Nodes = append(resp.Nodes, ClusterNode{
			Name:   row.Name,
			URL:    row.URL,
			State:  row.State.String(),
			Fails:  row.Fails,
			Leader: row.Name == leader,
			Self:   row.Name == self,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// clusterScoped runs h for one of the /v2/cluster/.../{id} routes: it
// answers 412 on an unclustered service and 400 to an invalid session id
// before h sees the cluster runtime and the id.
func (s *Service) clusterScoped(h func(http.ResponseWriter, *http.Request, *clusterRuntime, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cluster == nil {
			writeError(w, http.StatusPreconditionFailed, errClusterDisabled)
			return
		}
		id := r.PathValue("id")
		if !validSessionID(id) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %q", errInvalidSessionID, id))
			return
		}
		h(w, r, s.cluster, id)
	}
}

// handleClusterRoute serves GET /v2/cluster/route/{id}.
func handleClusterRoute(w http.ResponseWriter, _ *http.Request, c *clusterRuntime, id string) {
	owners := c.node.Owners(id)
	resp := ClusterRouteResponse{
		ID:    id,
		Local: c.node.OwnsLocally(id),
	}
	for i, p := range owners {
		n := ClusterNode{Name: p.Name, URL: p.URL, State: cluster.StateAlive.String(),
			Self: p.Name == c.node.Self().Name}
		if i == 0 {
			resp.Owner = n
		}
		resp.Replicas = append(resp.Replicas, n)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReplicaPut serves PUT /v2/cluster/replicas/{id}: a peer pushing a
// session's checkpoint image here for safekeeping. The body goes through a
// pooled buffer into the temp file WriteFileAtomic lands, which must pass
// core.VerifyImageAt — every check a restore would make, nothing built —
// before it is renamed into place, so an image that would not restore can
// never shadow a good replica, and no image is ever held in memory.
func handleReplicaPut(w http.ResponseWriter, r *http.Request, c *clusterRuntime, id string) {
	tooLarge := fmt.Errorf("replica image exceeds %d bytes", maxReplicaBytes)
	if r.ContentLength > maxReplicaBytes {
		writeError(w, http.StatusRequestEntityTooLarge, tooLarge)
		return
	}
	status := http.StatusInternalServerError // the disk's failures, the rename's too
	n, err := core.WriteFileAtomic(c.replicaPath(id), func(f io.Writer) (int64, error) {
		buf := relayBufs.Get().(*[32 << 10]byte)
		defer relayBufs.Put(buf)
		var n int64
		for rerr := error(nil); rerr != io.EOF; {
			var k int
			k, rerr = r.Body.Read(buf[:])
			if _, err := f.Write(buf[:k]); err != nil {
				return n, err
			}
			switch n += int64(k); {
			case n > maxReplicaBytes:
				status = http.StatusRequestEntityTooLarge
				return n, tooLarge
			case rerr != nil && rerr != io.EOF:
				status = http.StatusBadRequest
				return n, fmt.Errorf("reading replica image: %w", rerr)
			}
		}
		err := core.VerifyImageAt(f.(io.ReaderAt), n)
		var diskErr *fs.PathError // reading the file back failed: the disk's fault
		if err != nil && !errors.As(err, &diskErr) {
			status = http.StatusBadRequest
			return n, fmt.Errorf("replica image is not a valid checkpoint: %w", err)
		}
		return n, err
	})
	switch {
	case err != nil && status == http.StatusInternalServerError:
		writeError(w, status, fmt.Errorf("storing replica: %w", err))
	case err != nil:
		writeError(w, status, err)
	default:
		writeJSON(w, http.StatusOK, ClusterReplicaResponse{ID: id, Bytes: int(n)})
	}
}

// handleReplicaGet serves GET /v2/cluster/replicas/{id}: the stored
// replica image, streamed, so an owner (or an operator) can pull a copy
// instead of waiting for a push.
func handleReplicaGet(w http.ResponseWriter, _ *http.Request, c *clusterRuntime, id string) {
	img, err := os.Open(c.replicaPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			writeError(w, http.StatusNotFound, fmt.Errorf("no replica for session %q", id))
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer img.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	buf := relayBufs.Get().(*[32 << 10]byte)
	// Hide the file's WriteTo, which would copy through a fresh buffer.
	_, _ = io.CopyBuffer(w, struct{ io.Reader }{img}, buf[:])
	relayBufs.Put(buf)
}

// handleReplicaDelete serves DELETE /v2/cluster/replicas/{id}: drops the
// stored replica image (204 whether or not one existed — deletes are
// idempotent). Session deletion broadcasts this to every peer so a
// deleted tenant's learning cannot resurrect through a stale replica.
func handleReplicaDelete(w http.ResponseWriter, _ *http.Request, c *clusterRuntime, id string) {
	if err := os.Remove(c.replicaPath(id)); err != nil && !os.IsNotExist(err) {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRebalance serves POST /v2/cluster/rebalance: one sweep handing
// misplaced local sessions to their ring owners (see Service.Rebalance).
func (s *Service) handleRebalance(w http.ResponseWriter, _ *http.Request) {
	resp, err := s.Rebalance()
	if err != nil {
		writeError(w, http.StatusPreconditionFailed, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
