package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req (the X-Request-ID the bench client sets); Parent names the
// span that caused this one ("" for a root). Times are nanoseconds since
// the recorder was created, read from the process's monotonic clock, so
// client- and server-side spans of the in-process service are comparable.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark ends. All spans are
// recorded from the benchmark's own files, around calls into the layers'
// public functions: the client call, the http.RoundTripper inside the
// client, and an http.Handler middleware around Service.Handler().
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	seq   int
	// reqBytes and respBytes are the body sizes of decide requests.
	reqBytes, respBytes []float64
	// proxied counts decide responses carrying X-Megh-Proxied.
	decides, proxied int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// nextReq mints the X-Request-ID of the next client call.
func (r *recorder) nextReq() string {
	r.mu.Lock()
	r.seq++
	n := r.seq
	r.mu.Unlock()
	return fmt.Sprintf("bench-%s-%d", r.workload, n)
}

type reqKey struct{}

// withReq tags ctx with the request ID so the RoundTripper can find it.
func withReq(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, reqKey{}, rid)
}

// Span IDs are derived from the request ID, so every layer can name its
// parent without passing anything but the headers the service already
// forwards (X-Request-ID, X-Megh-Forwarded).
func clientSpanID(rid string) string        { return rid + "/client" }
func wireSpanID(rid string) string          { return rid + "/wire" }
func handlerSpanID(rid, node string) string { return rid + "/handler@" + node }

// isDecidePath reports whether path is a decide or decide/batch route.
func isDecidePath(path string) bool {
	return strings.HasSuffix(path, "/decide") || strings.HasSuffix(path, "/decide/batch")
}

// tracingTransport is the bench-owned http.RoundTripper handed to
// server.NewClient on traced runs. It stamps the request ID and records
// the wire span: RoundTrip call to response headers.
type tracingTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rid, _ := req.Context().Value(reqKey{}).(string)
	if rid == "" {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", rid)
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	end := t.rec.now()
	t.rec.add(span{ID: wireSpanID(rid), Parent: clientSpanID(rid), Req: rid,
		Name: "wire.roundtrip", Start: start, End: end})
	if err == nil && isDecidePath(req.URL.Path) {
		t.rec.mu.Lock()
		t.rec.decides++
		if resp.Header.Get("X-Megh-Proxied") != "" {
			t.rec.proxied++
		}
		t.rec.reqBytes = append(t.rec.reqBytes, float64(req.ContentLength))
		t.rec.mu.Unlock()
		resp.Body = &countingBody{ReadCloser: resp.Body, rec: t.rec}
	}
	return resp, err
}

// countingBody reports a decide response's body length once it is closed.
type countingBody struct {
	io.ReadCloser
	rec *recorder
	n   int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.rec.mu.Lock()
	b.rec.respBytes = append(b.rec.respBytes, float64(b.n))
	b.rec.mu.Unlock()
	return b.ReadCloser.Close()
}

// routeName classifies a request for the handler spans.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/decide/batch"):
		return "batch"
	case strings.HasSuffix(p, "/decide"):
		return "decide"
	case strings.HasSuffix(p, "/feedback"):
		return "feedback"
	case strings.HasSuffix(p, "/checkpoint"):
		return "checkpoint"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v2/cluster/replicas/"):
		return "replica_put"
	default:
		return "other"
	}
}

// middleware is the bench-owned http.Handler wrapped around
// Service.Handler() on traced runs. The handler span's parent is the wire
// span, or — for a request another node proxied here — that node's
// handler span. Replica pushes carry no caller request ID, so they are
// root spans under the ID the service generated.
func (r *recorder) middleware(node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		next.ServeHTTP(w, req)
		end := r.now()
		s := span{Name: "handler." + routeName(req), Node: node, Start: start, End: end}
		if rid := req.Header.Get("X-Request-ID"); rid != "" {
			s.Req = rid
			s.Parent = wireSpanID(rid)
			if from := req.Header.Get("X-Megh-Forwarded"); from != "" {
				s.Parent = handlerSpanID(rid, from)
			}
		} else {
			s.Req = w.Header().Get("X-Request-ID")
		}
		s.ID = handlerSpanID(s.Req, node)
		r.add(s)
	})
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestBreakdown is the per-request split the budget table is built
// from: each field is one layer's self time along the blocking path.
type requestBreakdown struct {
	clientSelf, transport, proxySelf, handler samples
}

// breakdown splits every traced call of the given client span name into
// its layers: client self = client − wire, transport = wire − entry
// handler, proxy self = entry handler − owner handler, handler = the span
// of the node that served the request. The first skip calls are warm-up
// and stay out, as they stay out of the latency samples.
func (r *recorder) breakdown(clientName string, skip int) requestBreakdown {
	type parts struct {
		client, wire time.Duration
		entry, owner time.Duration
		hasOwner     bool
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byReq := make(map[string]*parts)
	var order []string
	for _, s := range r.spans {
		if s.Name != clientName {
			continue
		}
		byReq[s.Req] = &parts{client: s.dur()}
		order = append(order, s.Req)
	}
	for _, s := range r.spans {
		p := byReq[s.Req]
		if p == nil {
			continue
		}
		switch {
		case s.Name == "wire.roundtrip":
			p.wire = s.dur()
		case strings.HasPrefix(s.Name, "handler.") && s.Parent == wireSpanID(s.Req):
			p.entry = s.dur()
		case strings.HasPrefix(s.Name, "handler."):
			p.owner, p.hasOwner = s.dur(), true
		}
	}
	if skip > len(order) {
		skip = len(order)
	}
	var out requestBreakdown
	for _, rid := range order[skip:] {
		p := byReq[rid]
		out.clientSelf = append(out.clientSelf, p.client-p.wire)
		out.transport = append(out.transport, p.wire-p.entry)
		if p.hasOwner {
			out.proxySelf = append(out.proxySelf, p.entry-p.owner)
			out.handler = append(out.handler, p.owner)
		} else {
			out.handler = append(out.handler, p.entry)
		}
	}
	return out
}

// handlerSpans returns the durations of every handler span of a route
// that served its request locally (not the entry side of a proxy hop).
func (r *recorder) handlerSpans(route string) samples {
	r.mu.Lock()
	defer r.mu.Unlock()
	proxiedBy := make(map[string]bool) // entry spans that have a child
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, "handler.") && strings.Contains(s.Parent, "/handler@") {
			proxiedBy[s.Parent] = true
		}
	}
	var out samples
	for _, s := range r.spans {
		if s.Name == "handler."+route && !proxiedBy[s.ID] {
			out = append(out, s.dur())
		}
	}
	return out
}
