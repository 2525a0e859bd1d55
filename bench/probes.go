package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"megh/internal/cluster"
	"megh/internal/core"
	"megh/internal/health"
	"megh/internal/server"
	"megh/internal/sim"
	"megh/internal/sparse"
)

// perLayer lists every per-layer metric, in print order. A traced run
// reports all of them on every workload; a layer the workload bypasses
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"client.decide_self_us", "us"},
	{"wire.transport_us", "us"},
	{"wire.request_bytes", "B"},
	{"wire.response_bytes", "B"},
	{"codec.encode_us", "us"},
	{"codec.decode_us", "us"},
	{"codec.validate_us", "us"},
	{"codec.response_encode_us", "us"},
	{"codec.decode_allocs", "count"},
	{"codec.decode_alloc_kb", "KB"},
	{"handler.decide_us", "us"},
	{"handler.feedback_us", "us"},
	{"handler.batch_us", "us"},
	{"handler.checkpoint_us", "us"},
	{"handler.other_us", "us"},
	{"coalesce.rounds", "count"},
	{"coalesce.merged_ratio", "ratio"},
	{"admit.throttled", "count"},
	{"core.decide_us", "us"},
	{"core.observe_us", "us"},
	{"core.batch_item_us", "us"},
	{"core.qtable_nnz", "count"},
	{"core.mirror_agreement", "ratio"},
	{"sparse.sm_update_us", "us"},
	{"sparse.nnz_per_update", "count"},
	{"health.after_decide_us", "us"},
	{"health.verdict", "level"},
	{"persist.save_ms", "ms"},
	{"persist.load_ms", "ms"},
	{"persist.bytes", "B"},
	{"proxy.self_us", "us"},
	{"proxy.share", "ratio"},
	{"replica.put_ms", "ms"},
	{"replica.bytes", "B"},
	{"ring.owner_ns", "ns"},
	{"sim.step_us", "us"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_bytes", "B"},
	{"trace.tail_us", "us"},
}

// layerSet collects per-layer values by name.
type layerSet map[string]float64

// metrics renders the set in perLayer order, zero for what was not set.
func (ls layerSet) metrics() []metric {
	out := make([]metric, 0, len(perLayer))
	for _, p := range perLayer {
		out = append(out, metric{p.name, ls[p.name], p.unit})
	}
	return out
}

// --- core, sparse, health: the mirror learner -------------------------------

// smUpdate is one rank-1 update the learner's hook reported.
type smUpdate struct{ a, b, n int }

// learnerProbe times a learner's calls and collects what the sparse and
// health probes need. The learner has one update hook, which the sparse
// probe takes; the health tracker is therefore attached the way the
// service attaches one to a restored learner (fresh=false), without the
// hook-fed inverse-drift probe, and health.after_decide_us is a floor.
type learnerProbe struct {
	learner *core.Megh
	health  *health.Tracker
	updates []smUpdate

	decideT, observeT, afterT samples
}

func newLearnerProbe(l *core.Megh) *learnerProbe {
	p := &learnerProbe{learner: l}
	p.health = health.NewTracker(l, false, health.Config{Seed: l.Config().Seed})
	l.SetUpdateHook(func(a, b, n int, _, _ float64, applied bool) {
		if applied {
			p.updates = append(p.updates, smUpdate{a, b, n})
		}
	})
	return p
}

func (p *learnerProbe) afterDecide() {
	start := time.Now()
	p.health.AfterDecide()
	p.afterT = append(p.afterT, time.Since(start))
}

// sparseReplay runs the recorded update sequence through
// ShermanMorrisonBasisScaled on a fresh matrix of the learner's dimension.
func (p *learnerProbe) sparseReplay(ls layerSet) {
	if len(p.updates) == 0 {
		return
	}
	d := p.learner.Dim()
	b := sparse.NewMatrix(d, 1/float64(d))
	b.SetDropTolerance(1e-9 / float64(d))
	nnz0 := b.NNZ()
	gamma := p.learner.Config().Gamma
	times := make(samples, 0, len(p.updates))
	for _, u := range p.updates {
		start := time.Now()
		_, _ = b.ShermanMorrisonBasisScaled(u.a, u.b, gamma, float64(u.n))
		times = append(times, time.Since(start))
	}
	ls["sparse.sm_update_us"] = us(times.percentile(0.5))
	ls["sparse.nnz_per_update"] = float64(b.NNZ()-nnz0) / float64(len(p.updates))
}

// persistProbe saves and loads the warmed learner.
func (p *learnerProbe) persistProbe(ls layerSet, dir string) error {
	path := filepath.Join(dir, "probe.ckpt")
	var save, load samples
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := p.learner.SaveStateFile(path); err != nil {
			return err
		}
		save = append(save, time.Since(start))
		start = time.Now()
		if _, err := core.LoadStateFile(path); err != nil {
			return err
		}
		load = append(load, time.Since(start))
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	ls["persist.save_ms"] = ms(save.percentile(0.5))
	ls["persist.load_ms"] = ms(load.percentile(0.5))
	ls["persist.bytes"] = float64(info.Size())
	return nil
}

func (p *learnerProbe) fill(ls layerSet) {
	ls["core.decide_us"] = us(p.decideT.percentile(0.5))
	ls["core.observe_us"] = us(p.observeT.percentile(0.5))
	ls["core.qtable_nnz"] = float64(p.learner.QTableNNZ())
	ls["health.after_decide_us"] = us(p.afterT.mean())
	v, _ := p.health.Verdict()
	ls["health.verdict"] = float64(v)
	p.sparseReplay(ls)
}

// mirror is a second learner in the bench process — same DefaultConfig,
// same seed — fed the same snapshots and the feedback fields the wire
// carries, so the learner's share of a request can be timed through its
// public functions. core.mirror_agreement checks that it stays in step
// with the service's learner.
type mirror struct {
	*learnerProbe
	overload, tau float64
	batchItemT    samples
	steps, agreed int
}

func newMirror(spec server.SessionSpec, cfg sim.Config) (*mirror, error) {
	l, err := core.New(core.DefaultConfig(spec.NumVMs, spec.NumHosts, spec.Seed))
	if err != nil {
		return nil, err
	}
	return &mirror{learnerProbe: newLearnerProbe(l), overload: cfg.OverloadThreshold, tau: cfg.StepSeconds}, nil
}

func (m *mirror) decide(req *server.StateRequest, got []sim.Migration) {
	snap := snapshotFromRequest(req, m.overload, m.tau)
	start := time.Now()
	migs := m.learner.Decide(snap)
	m.decideT = append(m.decideT, time.Since(start))
	m.steps++
	if sameMigrations(migs, got) {
		m.agreed++
	}
	m.afterDecide()
}

func (m *mirror) observe(fb server.FeedbackRequest) {
	f := wireFeedback(fb)
	start := time.Now()
	m.learner.Observe(f)
	m.observeT = append(m.observeT, time.Since(start))
}

func (m *mirror) batch(req *server.BatchDecideRequest, resp *server.BatchDecideResponse) {
	items := make([]core.BatchItem, len(req.Items))
	for i := range req.Items {
		items[i].Snap = snapshotFromRequest(&req.Items[i].State, m.overload, m.tau)
		if fb := req.Items[i].Feedback; fb != nil {
			items[i].Feedback = wireFeedback(*fb)
		}
	}
	start := time.Now()
	outs := m.learner.DecideBatch(items)
	m.batchItemT = append(m.batchItemT, time.Since(start)/time.Duration(len(items)))
	for i, migs := range outs {
		m.steps++
		if sameMigrations(migs, responseMigrations(&resp.Results[i])) {
			m.agreed++
		}
	}
	m.afterDecide()
}

func (m *mirror) fill(ls layerSet) {
	m.learnerProbe.fill(ls)
	ls["core.batch_item_us"] = us(m.batchItemT.percentile(0.5))
	if m.steps > 0 {
		ls["core.mirror_agreement"] = float64(m.agreed) / float64(m.steps)
	}
}

// --- codec: captured requests replayed through encoding/json ---------------

// captureTarget is how many of a run's own requests the codec probes keep.
const captureTarget = 32

// capture keeps evenly spaced requests of a run and their responses.
type capture[Q, R any] struct {
	every int
	reqs  []Q
	resps []R
}

// newCapture spaces captureTarget captures over total requests.
func newCapture[Q, R any](total int) *capture[Q, R] {
	every := total / captureTarget
	if every < 1 {
		every = 1
	}
	return &capture[Q, R]{every: every}
}

func (c *capture[Q, R]) keep(i int, req Q, resp R) {
	if i%c.every == 0 && len(c.reqs) < captureTarget {
		c.reqs = append(c.reqs, req)
		c.resps = append(c.resps, resp)
	}
}

// codecProbe times the JSON work of n captured request/response pairs
// the way the client and the service do it: json.Marshal on the way out,
// a json.Decoder over the body on the way in, Validate, and a
// json.Encoder for the response.
func codecProbe(ls layerSet, n int, reqAt func(int) any, decodeInto func() any, validate func(int) error, respAt func(int) any) error {
	if n == 0 {
		return nil
	}
	var enc, dec, val, renc samples
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		raw, err := json.Marshal(reqAt(i))
		enc = append(enc, time.Since(start))
		if err != nil {
			return err
		}
		bodies[i] = raw
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		dst := decodeInto()
		start := time.Now()
		err := json.NewDecoder(bytes.NewReader(bodies[i])).Decode(dst)
		dec = append(dec, time.Since(start))
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	for i := 0; i < n; i++ {
		start := time.Now()
		err := validate(i)
		val = append(val, time.Since(start))
		if err != nil {
			return err
		}
		start = time.Now()
		err = json.NewEncoder(io.Discard).Encode(respAt(i))
		renc = append(renc, time.Since(start))
		if err != nil {
			return err
		}
	}
	ls["codec.encode_us"] = us(enc.percentile(0.5))
	ls["codec.decode_us"] = us(dec.percentile(0.5))
	ls["codec.validate_us"] = us(val.percentile(0.5))
	ls["codec.response_encode_us"] = us(renc.percentile(0.5))
	ls["codec.decode_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	ls["codec.decode_alloc_kb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
	return nil
}

// --- handler, cluster, obs: read from spans and the service's surface -------

// serviceLayers fills what every wire workload reads the same way.
func serviceLayers(ls layerSet, l *wireLoop, clientSpan string, scratch string) error {
	t, rec := l.t, l.rec
	bd := rec.breakdown(clientSpan, l.sz.warmup)
	ls["client.decide_self_us"] = us(bd.clientSelf.percentile(0.5))
	ls["wire.transport_us"] = us(bd.transport.percentile(0.5))
	ls["proxy.self_us"] = us(bd.proxySelf.percentile(0.5))
	served := us(bd.handler.percentile(0.5))
	if clientSpan == "client.batch" {
		ls["handler.batch_us"] = served
	} else {
		ls["handler.decide_us"] = served
	}
	ls["handler.feedback_us"] = us(rec.handlerSpans("feedback").percentile(0.5))
	ls["handler.checkpoint_us"] = us(rec.handlerSpans("checkpoint").percentile(0.5))
	ls["replica.put_ms"] = ms(rec.handlerSpans("replica_put").percentile(0.5))

	rec.mu.Lock()
	ls["wire.request_bytes"] = medianFloat(rec.reqBytes)
	ls["wire.response_bytes"] = medianFloat(rec.respBytes)
	if rec.decides > 0 {
		ls["proxy.share"] = float64(rec.proxied) / float64(rec.decides)
	}
	rec.mu.Unlock()

	reg := t.owner.Metrics()
	rounds := reg.Counter("megh_coalesce_rounds_total", "", nil).Value()
	merged := reg.Counter("megh_coalesce_merged_requests_total", "", nil).Value()
	ls["coalesce.rounds"] = float64(rounds)
	if rounds > 0 {
		ls["coalesce.merged_ratio"] = float64(merged) / float64(rounds)
	}
	ls["admit.throttled"] = float64(reg.Counter("megh_http_throttled_total", "", nil).Value())

	l.mirror.fill(ls)
	if err := l.mirror.persistProbe(ls, scratch); err != nil {
		return err
	}
	ctx := context.Background()
	stats, err := t.sess.Stats(ctx)
	if err != nil {
		return err
	}
	ls["core.qtable_nnz"] = float64(stats.QTableNNZ)
	body, err := t.get(t.entryURL + "/v2/sessions/" + t.id + "/health")
	if err != nil {
		return err
	}
	var h server.SessionHealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		return err
	}
	for v := health.Healthy; v <= health.Diverging; v++ {
		if v.String() == h.Health.Verdict {
			ls["health.verdict"] = float64(v)
		}
	}

	if l.sz.checkpointEvery > 0 {
		ls["replica.bytes"] = float64(l.lastCkpt.Bytes)
		ring := cluster.NewRing([]string{"a", "b", "c"}, 0)
		keys := make([]string, 10000)
		for i := range keys {
			keys[i] = fmt.Sprintf("tenant-%d", i)
		}
		start := time.Now()
		for _, k := range keys {
			_ = ring.Owner(k)
		}
		ls["ring.owner_ns"] = float64(time.Since(start)) / float64(len(keys))
	}

	// Read-side cost beside decides: scrapes and trace tails.
	var scrape, tail samples
	var scrapeBytes int
	for i := 0; i < 20; i++ {
		start := time.Now()
		body, err := t.get(t.entryURL + "/metrics")
		scrape = append(scrape, time.Since(start))
		if err != nil {
			return err
		}
		scrapeBytes = len(body)
		start = time.Now()
		_, err = t.sess.TraceTail(ctx, 100)
		tail = append(tail, time.Since(start))
		if err != nil {
			return err
		}
	}
	ls["obs.scrape_ms"] = ms(scrape.percentile(0.5))
	ls["obs.scrape_bytes"] = float64(scrapeBytes)
	ls["trace.tail_us"] = us(tail.percentile(0.5))
	return nil
}

// handlerOther is what the handler span holds beyond the probed parts:
// snapshot build, admission, coalescing, session lock, health, metrics,
// socket reads, GC assist. Only a later in-program trace can split it.
func handlerOther(ls layerSet, handler, learner float64) {
	ls["handler.other_us"] = handler - (ls["codec.decode_us"] + ls["codec.validate_us"] + learner + ls["codec.response_encode_us"])
}

// probeFailed counts a probe that could not run as a failed check.
func probeFailed(m *measure, err error) {
	if err != nil {
		m.fail(fmt.Errorf("per-layer probes: %w", err))
	}
}

func wireLayers(l *wireLoop, scratch string, simStep time.Duration) []metric {
	ls := layerSet{"sim.step_us": us(simStep)}
	err := serviceLayers(ls, l, "client.decide", scratch)
	if err == nil {
		c := l.probe
		err = codecProbe(ls, len(c.reqs),
			func(i int) any { return &c.reqs[i] },
			func() any { return new(server.StateRequest) },
			func(i int) error { return c.reqs[i].Validate() },
			func(i int) any { return &c.resps[i] })
	}
	probeFailed(l.m, err)
	handlerOther(ls, ls["handler.decide_us"], ls["core.decide_us"])
	return ls.metrics()
}

func batchLayers(l *wireLoop, c *capture[server.BatchDecideRequest, server.BatchDecideResponse], scratch string, simStep time.Duration) []metric {
	ls := layerSet{"sim.step_us": us(simStep)}
	err := serviceLayers(ls, l, "client.batch", scratch)
	if err == nil {
		err = codecProbe(ls, len(c.reqs),
			func(i int) any { return &c.reqs[i] },
			func() any { return new(server.BatchDecideRequest) },
			func(i int) error {
				for k := range c.reqs[i].Items {
					if err := c.reqs[i].Items[k].State.Validate(); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) any { return &c.resps[i] })
	}
	probeFailed(l.m, err)
	handlerOther(ls, ls["handler.batch_us"], ls["core.batch_item_us"]*float64(l.sz.batchItems))
	return ls.metrics()
}

// localLayers needs no mirror: sim-local's learner is already in-process,
// and its own timed calls are the core layer's numbers.
func localLayers(l *localLoop, scratch string, simStep time.Duration) []metric {
	ls := layerSet{"sim.step_us": us(simStep), "core.mirror_agreement": 1}
	p := l.probe
	p.decideT, p.observeT = l.m.decide, l.observe
	p.fill(ls)
	probeFailed(l.m, p.persistProbe(ls, scratch))
	return ls.metrics()
}

// --- budget table -----------------------------------------------------------

// budgetRow is one line of a wire workload's latency budget.
type budgetRow struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
}

// budget lays the traced run's per-layer medians beside a measured decide
// median (reference, in ms). When the rows' sum misses the reference by
// more than 15 % the difference is shown as an UNEXPLAINED row — never
// normalised away.
func budget(traced *result, batchItems int, referenceMS float64) []budgetRow {
	get := func(name string) float64 { v, _ := traced.metric(name); return v }
	learner := budgetRow{"core.decide_us", get("core.decide_us")}
	if get("handler.batch_us") > 0 {
		learner = budgetRow{fmt.Sprintf("core.batch_item_us x%d", batchItems), get("core.batch_item_us") * float64(batchItems)}
	}
	rows := []budgetRow{
		{"client.decide_self_us", get("client.decide_self_us")},
		{"wire.transport_us", get("wire.transport_us")},
		{"codec.decode_us", get("codec.decode_us")},
		{"codec.validate_us", get("codec.validate_us")},
		learner,
		{"codec.response_encode_us", get("codec.response_encode_us")},
		{"handler.other_us", get("handler.other_us")},
	}
	if p := get("proxy.self_us"); p > 0 {
		rows = append(rows, budgetRow{"proxy.self_us", p})
	}
	var sum float64
	for _, row := range rows {
		sum += row.US
	}
	ref := referenceMS * 1000
	rows = append(rows, budgetRow{"sum", sum})
	if diff := ref - sum; ref > 0 && (diff > 0.15*ref || diff < -0.15*ref) {
		rows = append(rows, budgetRow{"UNEXPLAINED", diff})
	}
	return append(rows, budgetRow{"measured decide_p50", ref})
}
