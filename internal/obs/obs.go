// Package obs is the reproduction's zero-dependency observability layer:
// a metrics registry with atomic counters, gauges, and log-bucketed
// histograms, exported in the Prometheus text format (obs.Registry.Handler
// serves it at GET /metrics). It exists so the serving path (meghd) and the
// simulator can defend the paper's operational claims — constant-time
// decisions (§5.2, Figure 6) and linear Q-table growth (Figure 7) — with
// live measurements instead of test helpers.
//
// The module is intentionally stdlib-only (the repo's go.mod has no
// dependencies); the exporter emits text format version 0.0.4, which every
// Prometheus-compatible scraper understands.
//
// All metric operations are safe for concurrent use and lock-free on the
// hot path: counters and histogram buckets are atomic integers, gauges and
// histogram sums are atomic float64 bit patterns. Get-or-create lookups
// (Registry.Counter, …) take the registry lock, so instruments should be
// resolved once and cached by callers on hot paths.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimension key/value pairs to one metric instance
// (e.g. {"route": "/v2/sessions/:id/decide"}). A nil map means no labels.
type Labels map[string]string

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets hold per-bucket (not
// cumulative) counts internally; the exporter accumulates them into the
// cumulative `le` form Prometheus expects.
type Histogram struct {
	// bounds are the ascending inclusive upper bounds; one extra implicit
	// +Inf bucket follows the last bound.
	bounds  []float64
	counts  []atomic.Int64
	sumBits atomic.Uint64
	// exemplars holds, per bucket, the most recent exemplar recorded via
	// ObserveExemplar — a link from a latency bucket back to the request
	// (X-Request-ID / trace offset) that landed in it. Plain Observe never
	// touches it, so the hot path stays allocation-free.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to a concrete observation: the
// request ID (or trace offset) and value that most recently landed in it.
type Exemplar struct {
	// Bucket is the bucket's upper bound; math.Inf(1) for the overflow
	// bucket.
	Bucket float64 `json:"bucket_le"`
	// Value is the observed sample.
	Value float64 `json:"value"`
	// Label identifies the request: an X-Request-ID or trace offset.
	Label string `json:"label"`
}

// ObserveExemplar records a sample like Observe and additionally stores an
// exemplar for the bucket it lands in. It allocates (one Exemplar per
// call), so use it on request-scoped paths — middleware, not kernels.
func (h *Histogram) ObserveExemplar(v float64, label string) {
	i := sort.SearchFloat64s(h.bounds, v)
	bound := math.Inf(1)
	if i < len(h.bounds) {
		bound = h.bounds[i]
	}
	h.exemplars[i].Store(&Exemplar{Bucket: bound, Value: v, Label: label})
	h.Observe(v)
}

// Exemplars returns the recorded exemplars in ascending bucket order,
// skipping buckets that never received one.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the +Inf bucket catches the
	// rest.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LogBuckets returns count upper bounds growing geometrically from start by
// factor — the log-spaced bucketing that keeps relative error uniform
// across decision latencies spanning microseconds to seconds.
func LogBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("obs: invalid log buckets (start=%g factor=%g count=%d)", start, factor, count))
	}
	out := make([]float64, count)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// DefLatencyBuckets covers 1 µs … ~16.8 s in factor-2 steps, wide enough
// for both the sub-millisecond Megh decisions of §5.2 and slow cold paths.
func DefLatencyBuckets() []float64 { return LogBuckets(1e-6, 2, 25) }

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family groups every labelled instance of one metric name.
type family struct {
	name, help, typ string
	// buckets is set for histogram families; all instances share it.
	buckets []float64

	mu        sync.Mutex
	instances map[string]any // label signature → *Counter | *Gauge | *Histogram
}

// Registry holds a process's metric families. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter with the given name and labels, creating it
// on first use. It panics if the name is already registered as a different
// metric type (a programming error, like Prometheus client libraries).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	inst := r.instance(name, help, typeCounter, nil, labels, func() any { return &Counter{} })
	return inst.(*Counter)
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	inst := r.instance(name, help, typeGauge, nil, labels, func() any { return &Gauge{} })
	return inst.(*Gauge)
}

// Histogram returns the histogram with the given name and labels, creating
// it with DefLatencyBuckets on first use.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.HistogramBuckets(name, help, nil, labels)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds (nil
// means DefLatencyBuckets). The first registration of a name fixes the
// family's buckets; later callers inherit them.
func (r *Registry) HistogramBuckets(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	} else {
		buckets = append([]float64(nil), buckets...)
		sort.Float64s(buckets)
	}
	var fam *family
	inst := r.instanceWith(name, help, typeHistogram, buckets, labels, func() any {
		h := &Histogram{bounds: fam.buckets}
		h.counts = make([]atomic.Int64, len(fam.buckets)+1)
		h.exemplars = make([]atomic.Pointer[Exemplar], len(fam.buckets)+1)
		return h
	}, &fam)
	return inst.(*Histogram)
}

func (r *Registry) instance(name, help, typ string, buckets []float64, labels Labels, mk func() any) any {
	var fam *family
	return r.instanceWith(name, help, typ, buckets, labels, mk, &fam)
}

// instanceWith resolves (or creates) the family, stores it through famOut
// so the constructor can read family-level state (histogram buckets), and
// returns the labelled instance.
func (r *Registry) instanceWith(name, help, typ string, buckets []float64, labels Labels, mk func() any, famOut **family) any {
	r.mu.Lock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{
			name: name, help: help, typ: typ,
			buckets:   buckets,
			instances: make(map[string]any),
		}
		r.families[name] = fam
	}
	r.mu.Unlock()
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.typ, typ))
	}
	*famOut = fam

	key := labelSignature(labels)
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if inst, ok := fam.instances[key]; ok {
		return inst
	}
	inst := mk()
	fam.instances[key] = inst
	return inst
}

// labelSignature renders labels deterministically for use as a map key and
// as the exported label block ({k="v",…}); empty for no labels.
func labelSignature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the text-format escaping rules for label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
