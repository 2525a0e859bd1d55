//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so the
// relay's pooled buffer is measured only without it.

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// cannedOwner stands in for the owner node: it drains each proxied request
// and answers with one fixed decide response, whose body — like a body read
// off a connection — has no WriteTo for the relay to lean on.
type cannedOwner struct{ body []byte }

func (o cannedOwner) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		_ = r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(struct{ io.Reader }{bytes.NewReader(o.body)}),
		Request:    r,
	}, nil
}

// TestProxiedDecideAllocations: what a proxied decide costs the entry node —
// envelope, routing, the request to the owner and the relay of its answer —
// stays a few KB. It was 32 KB more while the relay's io.Copy allocated a
// buffer per request behind writers that hide ReadFrom.
func TestProxiedDecideAllocations(t *testing.T) {
	canned, err := json.Marshal(DecideResponse{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestClusterTuned(t, 2, func(cc *ClusterConfig) {
		if cc.NodeName == "a" {
			cc.HTTPClient = &http.Client{Transport: cannedOwner{body: append(canned, '\n')}}
		}
	}, "a", "b")
	id := tc.idOwnedBy(t, "a", "b")
	entry := tc.svcs["a"].Handler()
	body, err := json.Marshal(sessionWorld(4, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	decide := func() {
		req, err := http.NewRequest(http.MethodPost, "http://a/v2/sessions/"+id+"/decide", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		entry.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get(proxiedHeader) != "b" {
			t.Fatalf("proxied decide: HTTP %d, proxied=%q: %s", rec.Code, rec.Header().Get(proxiedHeader), rec.Body)
		}
	}
	for i := 0; i < 8; i++ { // fill the pool and the lazily built state
		decide()
	}
	const n = 64
	if per := allocatedBy(func() {
		for i := 0; i < n; i++ {
			decide()
		}
	}) / n; per > 16<<10 {
		t.Fatalf("a proxied decide allocates %d bytes at the entry node, want under 16 KB", per)
	}
}
