package obs

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", nil)
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters never go down
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("in_flight", "gauge", nil)
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
}

func TestGetOrCreateReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "", Labels{"route": "/x"})
	b := r.Counter("c", "", Labels{"route": "/x"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("c", "", Labels{"route": "/y"})
	if a == other {
		t.Fatal("different labels must return distinct counters")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestHistogramObserveAndExport(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat_seconds", "latency", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %g, want 56.05", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
}

// TestWritePrometheusGolden pins the exposition byte for byte: a labelled
// and an unlabelled instance of each metric type, HELP escaping, a family
// without HELP, and a family without instances, which prints nothing.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests by route", Labels{"route": "/v2/decide"}).Add(3)
	r.Counter("req_total", "", nil).Add(1 << 53)
	r.Gauge("temp", `a \ and a`+"\nnewline", nil).Set(0.25)
	r.Gauge("temp", "", Labels{"k": `q"v`}).Set(-2)
	h := r.HistogramBuckets("lat_seconds", "", []float64{0.5, 1}, nil)
	h.Observe(0.5)
	h.Observe(3)
	r.HistogramBuckets("lat_seconds", "", nil, Labels{"s": "a"}).Observe(0.75)
	r.families["idle"] = &family{name: "idle", help: "never touched", typ: typeGauge, instances: map[string]any{}}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="1"} 1
lat_seconds_bucket{le="+Inf"} 2
lat_seconds_sum 3.5
lat_seconds_count 2
lat_seconds_bucket{s="a",le="0.5"} 0
lat_seconds_bucket{s="a",le="1"} 1
lat_seconds_bucket{s="a",le="+Inf"} 1
lat_seconds_sum{s="a"} 0.75
lat_seconds_count{s="a"} 1
# HELP req_total requests by route
# TYPE req_total counter
req_total 9007199254740992
req_total{route="/v2/decide"} 3
# HELP temp a \\ and a\nnewline
# TYPE temp gauge
temp 0.25
temp{k="q\"v"} -2
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("b", "", []float64{1, 2}, nil)
	h.Observe(1) // exactly on a bound → counted in le="1"
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `b_bucket{le="1"} 1`) {
		t.Fatalf("le bound must be inclusive:\n%s", sb.String())
	}
}

// TestExportIsWellFormed checks every sample line against the exposition
// grammar (metric name, optional label block, one value).
func TestExportIsWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help text", Labels{"route": "/v1/decide"}).Inc()
	r.Gauge("b", "with \"quotes\" and \\slashes\\", Labels{"k": "va\"lue\n2"}).Set(2.5)
	r.Histogram("c_seconds", "latency", nil).Observe(0.01)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)
	for _, l := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("malformed sample line %q", l)
		}
	}
}

func TestExportDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "", nil).Inc()
	r.Counter("a_total", "", nil).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Index(out, "a_total") > strings.Index(out, "z_total") {
		t.Fatalf("families must be name-sorted:\n%s", out)
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("body %q", rec.Body.String())
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run under
// -race this is the package's thread-safety regression test.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total", "", Labels{"g": string(rune('a' + g%4))}).Inc()
				r.Gauge("g", "", nil).Add(1)
				r.Histogram("h_seconds", "", nil).Observe(float64(i) * 1e-5)
				if i%50 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("c_total", "", Labels{"g": l}).Value()
	}
	if total != 8*500 {
		t.Fatalf("counter total = %d, want %d", total, 8*500)
	}
	if got := r.Histogram("h_seconds", "", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

// TestHistogramBucketBoundaries sweeps values below, exactly on, and just
// above every bucket bound and checks the exported cumulative counts.
// Bounds are inclusive (le semantics): a value exactly on a bound lands in
// that bucket, a value infinitesimally above spills to the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.5, 1, 2.5}
	h := r.HistogramBuckets("sweep", "", bounds, nil)

	observations := []float64{
		0.4,                    // strictly inside bucket 0
		0.5,                    // exactly on bound 0 → bucket 0 (inclusive)
		math.Nextafter(0.5, 1), // just above bound 0 → bucket 1
		1,                      // exactly on bound 1
		2.5,                    // exactly on the last finite bound
		math.Nextafter(2.5, 3), // just above the last bound → +Inf only
		1e9,                    // far overflow → +Inf only
	}
	for _, v := range observations {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative per-le expectations for the observations above.
	for _, want := range []string{
		`sweep_bucket{le="0.5"} 2`,
		`sweep_bucket{le="1"} 4`,
		`sweep_bucket{le="2.5"} 5`,
		`sweep_bucket{le="+Inf"} 7`,
		`sweep_count 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	if got, want := h.Count(), int64(7); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
}

// TestGaugeAddConcurrentSum drives Gauge.Add (a float CAS loop) from many
// writers with exactly representable deltas; the final value must be the
// exact sum — a lost CAS update would show up as a shortfall. Run with
// -race this doubles as the gauge's data-race regression test.
func TestGaugeAddConcurrentSum(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("cas", "", nil)
	const (
		writers = 16
		perG    = 2000
		delta   = 0.25 // exactly representable in binary
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if w%2 == 0 {
					g.Add(delta)
				} else {
					g.Add(2 * delta)
				}
			}
		}(w)
	}
	wg.Wait()
	want := float64(writers/2)*perG*delta + float64(writers/2)*perG*2*delta
	if got := g.Value(); got != want {
		t.Fatalf("concurrent Add lost updates: got %g, want %g", got, want)
	}
}
