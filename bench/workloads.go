package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"megh/internal/core"
	"megh/internal/experiments"
	"megh/internal/server"
	"megh/internal/sim"
)

// sizing is the scale one workload runs at. The CLI derives it from
// -seconds; the smoke test passes a tiny one directly.
type sizing struct {
	hosts, vms int
	// steps is the fixed number of decisions. The Q-table densifies with
	// updates, so latencies are comparable only at identical counts.
	steps int
	// warmup is how many leading steps run but stay out of the latency
	// samples (connection set-up, lazy allocation).
	warmup int
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// traceSteps is the world's trace length (0 = steps). Shorter traces
	// wrap, as CloudSim replays them.
	traceSteps int
	// batchItems is the decide/batch request size (batch-replay only).
	batchItems int
	// checkpointEvery interleaves a checkpoint every that many steps
	// (cluster-hop only).
	checkpointEvery int
}

// workload is one benchmark input. The names are the contract with
// BENCHMARK.json.
type workload struct {
	name, why string
	// size converts the -seconds work budget into a fixed sizing: the step
	// count that took about that long at the commit that defined the
	// benchmark. The same -seconds always gives the same count.
	size func(seconds int) sizing
	run  func(e *env, w *workload, sz sizing, traced bool) (*result, error)
}

// scaled is steps-per-second × seconds, at least min.
func scaled(perSecond float64, seconds, min int) int {
	n := int(math.Round(perSecond * float64(seconds)))
	if n < min {
		n = min
	}
	return n
}

var workloads = []*workload{
	{
		name: "small-wire",
		why:  "live control loop at the paper's 100x150 grid: every server layer holds a visible share, a learner-only change should not show",
		size: func(sec int) sizing {
			return sizing{hosts: 100, vms: 150, steps: scaled(864, sec, 128), warmup: 64, setups: 5}
		},
		run: runWire,
	},
	{
		name: "grid10k-wire",
		why:  "same loop at 10000x1000 (593 KB requests): codec, copy and GC dominate, the learner is under 1%; kernel work must show nothing",
		size: func(sec int) sizing {
			return sizing{hosts: 10000, vms: 1000, steps: scaled(28.8, sec, 32), warmup: 16, setups: 3}
		},
		run: runWire,
	},
	{
		name: "batch-replay",
		why:  "recorded 100x150 stream replayed as 16-item decide/batch requests: one decode, one lock hold, core.DecideBatch; the batch path's own costs",
		size: func(sec int) sizing {
			return sizing{hosts: 100, vms: 150, steps: 16 * scaled(108, sec, 8), warmup: 64, setups: 3, batchItems: 16}
		},
		run: runBatchReplay,
	},
	{
		name: "cluster-hop",
		why:  "small-wire through a 3-node cluster's proxy hop plus hourly replicated checkpoints: cluster-hop minus small-wire prices proxy, save and replica PUT",
		size: func(sec int) sizing {
			return sizing{hosts: 100, vms: 150, steps: scaled(864, sec, 128), warmup: 64, setups: 5, checkpointEvery: 12}
		},
		run: runWire,
	},
	{
		name: "sim-local",
		why:  "no HTTP: simulator plus in-process learner on the paper's 800x1052 setup for 12 weeks; kernel and densification costs show here only",
		size: func(sec int) sizing {
			return sizing{hosts: 800, vms: 1052, steps: scaled(2419.2, sec, 128), warmup: 64, setups: 3, traceSteps: 2016}
		},
		run: runSimLocal,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what every workload shares: the seed and a scratch directory.
type env struct {
	seed int64
	tmp  string
	// heapBase is the live heap when the workload started: what earlier
	// workloads of the same process left behind (results, spans).
	heapBase uint64
}

// dir returns a fresh scratch directory for one set-up.
func (e *env) dir(name string) (string, error) {
	return os.MkdirTemp(e.tmp, name+"-*")
}

// world builds the simulated data center from the seed. The program under
// test only ever sees the snapshots and feedback it generates.
func (e *env) world(sz sizing) (*sim.Simulator, experiments.Setup, error) {
	traceSteps := sz.traceSteps
	if traceSteps == 0 {
		traceSteps = sz.steps
	}
	setup := experiments.Setup{
		Dataset: experiments.PlanetLab, Hosts: sz.hosts, VMs: sz.vms,
		Steps: traceSteps, Seed: e.seed, Placement: sim.PlacementRandom,
	}
	cfg, err := setup.Build()
	if err != nil {
		return nil, setup, err
	}
	cfg.Steps = sz.steps
	s, err := sim.New(cfg)
	return s, setup, err
}

// repeatSetup runs build n times, tearing the previous result down before
// each, and returns how long each took with the last one still standing.
// Set-up is fast next to the measured phase, so one reading would sit near
// timer and page-fault noise; setup_s is the median.
func repeatSetup(n int, build func() (teardown func(), err error)) (seconds []float64, teardown func(), err error) {
	teardown = func() {}
	for i := 0; i < n; i++ {
		teardown()
		teardown = func() {}
		start := time.Now()
		if teardown, err = build(); err != nil {
			return nil, func() {}, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	// The discarded set-ups are garbage now; collect it here, or the
	// collector frees it (and the scavenger returns it) beside the first
	// timed operations.
	runtime.GC()
	debug.FreeOSMemory()
	return seconds, teardown, nil
}

// measure accumulates one workload's samples, failures and digest.
type measure struct {
	decide, feedback, checkpoint samples
	// callTime is the time spent inside calls to the system under test
	// during the measured phase; decisions is how many it returned then.
	callTime  time.Duration
	decisions int

	attempted, failed int
	errs              []string

	digest hash.Hash
	// mem0 and mem1 bracket the measured phase; heap is what the workload
	// added to the live heap, read after a forced collection at the end of
	// the measured phase with the services still live.
	mem0, mem1 runtime.MemStats
	heap       uint64
}

func newMeasure() *measure { return &measure{digest: sha256.New()} }

// op counts one attempted operation and, when err is non-nil, its failure:
// an error, a non-2xx status or a response failing a correctness check.
func (m *measure) op(err error) {
	m.attempted++
	if err != nil {
		m.fail(err)
	}
}

// fail counts a failure; on its own, one of an end-of-run check.
func (m *measure) fail(err error) {
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// begin marks the start of the measured phase, end its end.
func (m *measure) begin() { runtime.ReadMemStats(&m.mem0) }

func (m *measure) end(e *env) {
	runtime.ReadMemStats(&m.mem1)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > e.heapBase {
		m.heap = after.HeapAlloc - e.heapBase
	}
}

// decided folds one step's decisions into the digest.
func (m *measure) decided(step int, migs []sim.Migration) {
	var buf [24]byte
	for _, mg := range migs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(step))
		binary.LittleEndian.PutUint64(buf[8:], uint64(mg.VM))
		binary.LittleEndian.PutUint64(buf[16:], uint64(mg.Dest))
		m.digest.Write(buf[:])
	}
}

// checkMigrations verifies one step's decisions: every migration names an
// in-range VM and an in-range, non-failed destination other than the VM's
// current host.
func checkMigrations(step int, migs []sim.Migration, vmHost []int, failed []bool, numHosts int) error {
	for _, m := range migs {
		switch {
		case m.VM < 0 || m.VM >= len(vmHost):
			return fmt.Errorf("step %d: migration names VM %d of %d", step, m.VM, len(vmHost))
		case m.Dest < 0 || m.Dest >= numHosts:
			return fmt.Errorf("step %d: VM %d sent to host %d of %d", step, m.VM, m.Dest, numHosts)
		case len(failed) > 0 && failed[m.Dest]:
			return fmt.Errorf("step %d: VM %d sent to failed host %d", step, m.VM, m.Dest)
		case m.Dest == vmHost[m.VM]:
			return fmt.Errorf("step %d: VM %d sent to its own host %d", step, m.VM, m.Dest)
		}
	}
	return nil
}

// checkResponse is checkMigrations on a decide response, which must also
// echo the posted step.
func checkResponse(step int, resp *server.DecideResponse, vmHost []int, failed []bool, numHosts int) ([]sim.Migration, error) {
	if resp.Step != step {
		return nil, fmt.Errorf("step %d: response echoes step %d", step, resp.Step)
	}
	migs := responseMigrations(resp)
	return migs, checkMigrations(step, migs, vmHost, failed, numHosts)
}

func responseMigrations(resp *server.DecideResponse) []sim.Migration {
	migs := make([]sim.Migration, len(resp.Migrations))
	for i, d := range resp.Migrations {
		migs[i] = sim.Migration{VM: d.VM, Dest: d.Dest}
	}
	return migs
}

func sameMigrations(a, b []sim.Migration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Steps     int      `json:"steps"`
	Digest    string   `json:"digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// EndToEnd holds the metrics BENCHMARK.json gates, which every
	// workload reports; Extra the end-to-end metrics that only some
	// workloads have, or that move with the seed too much to gate.
	EndToEnd []metric       `json:"end_to_end"`
	Extra    []metric       `json:"extra,omitempty"`
	PerLayer []metric       `json:"per_layer,omitempty"`
	Counts   map[string]int `json:"sample_counts"`
	Budget   []budgetRow    `json:"budget,omitempty"`

	wallSeconds float64
	spans       []span
}

// metric looks a value up by name among all kinds.
func (r *result) metric(name string) (float64, bool) {
	for _, ms := range [][]metric{r.EndToEnd, r.Extra, r.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m.Value, true
			}
		}
	}
	return 0, false
}

// result assembles the end-to-end metrics. dps is decisions per second
// where the caller measured it over a wall time (sim-local); 0 means
// decisions over the time spent inside calls to the system under test, so
// generator time stays out.
func (m *measure) result(e *env, w *workload, sz sizing, traced bool, wall time.Duration, setups []float64, costUSD, dps float64) *result {
	if dps == 0 && m.callTime > 0 {
		dps = float64(m.decisions) / m.callTime.Seconds()
	}
	allocKB := 0.0
	if m.decisions > 0 {
		allocKB = float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / 1024 / float64(m.decisions)
	}
	r := &result{
		Workload: w.name, Seed: e.seed, Traced: traced, Steps: sz.steps, wallSeconds: wall.Seconds(),
		Digest:    hex.EncodeToString(m.digest.Sum(nil)),
		Attempted: m.attempted, Failed: m.failed, Errors: m.errs,
		EndToEnd: []metric{
			{"setup_s", medianFloat(setups), "s"},
			{"decide_p50_ms", ms(m.decide.percentile(0.50)), "ms"},
			{"decide_p95_ms", ms(m.decide.percentile(0.95)), "ms"},
			{"decisions_per_s", dps, "1/s"},
			{"cost_usd", costUSD, "USD"},
			{"live_heap_mb", float64(m.heap) / (1 << 20), "MB"},
			{"alloc_kb_per_decision", allocKB, "KB"},
		},
		Counts: map[string]int{
			"decide": len(m.decide), "feedback": len(m.feedback), "checkpoint": len(m.checkpoint),
			"setup": len(setups), "decisions": m.decisions,
		},
	}
	// The 99th percentile needs 1000 samples to leave ten beyond it.
	if len(m.decide) >= 1000 {
		r.Extra = append(r.Extra, metric{"decide_p99_ms", ms(m.decide.percentile(0.99)), "ms"})
	}
	if len(m.feedback) > 0 {
		r.Extra = append(r.Extra, metric{"feedback_p50_ms", ms(m.feedback.percentile(0.50)), "ms"})
	}
	if len(m.checkpoint) > 0 {
		r.Extra = append(r.Extra, metric{"checkpoint_p50_ms", ms(m.checkpoint.percentile(0.50)), "ms"})
	}
	return r
}

// --- wire workloads: small-wire, grid10k-wire, cluster-hop ----------------

// wireLoop is the bench-owned sim.Policy adapter: the simulator plays the
// monitoring pipeline, posting each snapshot and waiting for the
// migrations before acting (closed loop, one client, one connection).
type wireLoop struct {
	t      *target
	rec    *recorder
	m      *measure
	sz     sizing
	mirror *mirror
	probe  *capture[server.StateRequest, server.DecideResponse]

	policyTime time.Duration
	lastCkpt   server.CheckpointResponse
}

func (l *wireLoop) Name() string { return "Megh(bench)" }

func (l *wireLoop) Decide(s *sim.Snapshot) []sim.Migration {
	enter := time.Now()
	defer func() { l.policyTime += time.Since(enter) }()
	measured := s.Step >= l.sz.warmup
	if s.Step == l.sz.warmup {
		l.m.begin()
	}
	req := stateRequest(s)
	var resp server.DecideResponse
	d, err := call(l.rec, "decide", func(ctx context.Context) error {
		var e error
		resp, e = l.t.sess.Decide(ctx, req)
		return e
	})
	l.t.sessionCalls++
	var migs []sim.Migration
	if err == nil {
		migs, err = checkResponse(s.Step, &resp, s.VMHost, s.HostFailed, s.NumHosts())
	}
	l.m.op(err)
	if err != nil {
		return nil
	}
	l.m.decided(s.Step, migs)
	if measured {
		l.m.decide = append(l.m.decide, d)
		l.m.callTime += d
		l.m.decisions++
	}
	if l.mirror != nil {
		l.mirror.decide(&req, migs)
		l.probe.keep(s.Step, req, resp)
	}
	if every := l.sz.checkpointEvery; every > 0 && (s.Step+1)%every == 0 {
		l.checkpoint(measured)
	}
	return migs
}

func (l *wireLoop) checkpoint(measured bool) {
	var resp server.CheckpointResponse
	d, err := call(l.rec, "checkpoint", func(ctx context.Context) error {
		var e error
		resp, e = l.t.sess.Checkpoint(ctx)
		return e
	})
	l.t.sessionCalls++
	l.m.op(err)
	if err != nil {
		return
	}
	l.lastCkpt = resp
	if measured {
		l.m.checkpoint = append(l.m.checkpoint, d)
		l.m.callTime += d
	}
}

func (l *wireLoop) Observe(fb *sim.Feedback) {
	enter := time.Now()
	defer func() { l.policyTime += time.Since(enter) }()
	req := feedbackRequest(fb)
	d, err := call(l.rec, "feedback", func(ctx context.Context) error {
		return l.t.sess.Feedback(ctx, req)
	})
	l.t.sessionCalls++
	l.m.op(err)
	if err != nil {
		return
	}
	if fb.Step >= l.sz.warmup {
		l.m.feedback = append(l.m.feedback, d)
		l.m.callTime += d
	}
	if l.mirror != nil {
		l.mirror.observe(req)
	}
}

// serve starts the service (or cluster) in a fresh scratch directory and
// creates the session; the returned teardown closes and removes both.
func serve(e *env, w *workload, m *measure, clustered, traced bool, spec server.SessionSpec) (*target, *recorder, string, func(), error) {
	scratch, err := e.dir(w.name)
	if err != nil {
		return nil, nil, "", nil, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder(w.name)
	}
	var t *target
	if clustered {
		t, err = newCluster(scratch, e.seed, rec)
	} else {
		t, err = newSingleNode(scratch, e.seed, rec)
	}
	if err != nil {
		os.RemoveAll(scratch)
		return nil, nil, "", nil, err
	}
	teardown := func() {
		t.close()
		os.RemoveAll(scratch)
	}
	_, err = t.sess.Create(context.Background(), spec)
	t.sessionCalls++
	m.op(err)
	if err != nil {
		teardown()
		return nil, nil, "", nil, fmt.Errorf("creating session: %w", err)
	}
	return t, rec, scratch, teardown, nil
}

// runWire drives small-wire, grid10k-wire and cluster-hop; the cluster is
// the only difference between them besides scale.
func runWire(e *env, w *workload, sz sizing, traced bool) (*result, error) {
	clustered := sz.checkpointEvery > 0
	m := newMeasure()
	var (
		t       *target
		rec     *recorder
		simr    *sim.Simulator
		spec    server.SessionSpec
		scratch string
	)
	setups, teardown, err := repeatSetup(sz.setups, func() (func(), error) {
		var setup experiments.Setup
		var err error
		if simr, setup, err = e.world(sz); err != nil {
			return nil, err
		}
		spec = server.SessionSpec{NumVMs: sz.vms, NumHosts: sz.hosts, Seed: setup.PolicySeed()}
		var teardown func()
		t, rec, scratch, teardown, err = serve(e, w, m, clustered, traced, spec)
		return teardown, err
	})
	if err != nil {
		return nil, err
	}
	defer func() { teardown() }()

	loop := &wireLoop{t: t, rec: rec, m: m, sz: sz}
	if traced {
		if loop.mirror, err = newMirror(spec, simr.Config()); err != nil {
			return nil, err
		}
		loop.probe = newCapture[server.StateRequest, server.DecideResponse](sz.steps)
	}
	start := time.Now()
	res, err := simr.Run(loop)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	m.end(e)

	if clustered {
		// Node a must have proxied every session request, and the
		// successor's replica must equal the owner's last checkpoint.
		proxied := int(t.entry.Metrics().Counter("megh_cluster_proxied_requests_total", "", nil).Value())
		if proxied != t.sessionCalls {
			m.fail(fmt.Errorf("node a proxied %d of %d session requests", proxied, t.sessionCalls))
		}
		if err := t.checkReplica(loop.lastCkpt.Path); err != nil {
			m.fail(err)
		}
	}
	var layers []metric
	if traced {
		simStep := (wall - loop.policyTime) / time.Duration(sz.steps)
		layers = wireLayers(loop, scratch, simStep)
	}
	r := m.result(e, w, sz, traced, wall, setups, res.TotalCost(), 0)
	if traced {
		r.PerLayer, r.spans = layers, rec.spans
	}
	return r, nil
}

// --- batch-replay ---------------------------------------------------------

// recordedStep is one step of the recorded stream, kept compact: the
// static host and VM specs are shared by every step.
type recordedStep struct {
	vmHost []int
	vmUtil []float64
	fb     server.FeedbackRequest
	want   []sim.Migration
}

// recorderPolicy drives the world with a local learner during set-up and
// records the snapshots, the feedback and the learner's decisions. The
// learner is fed exactly what the service's learner will be fed, so the
// replay must reproduce its decisions.
type recorderPolicy struct {
	learner  *core.Megh
	overload float64
	tau      float64
	steps    []recordedStep
	hosts    []server.HostState
	vmSpecs  []sim.VMSpec

	policyTime time.Duration
}

func (p *recorderPolicy) Name() string { return "Megh(record)" }

func (p *recorderPolicy) Decide(s *sim.Snapshot) []sim.Migration {
	enter := time.Now()
	defer func() { p.policyTime += time.Since(enter) }()
	req := stateRequest(s)
	if p.hosts == nil {
		p.hosts = req.Hosts
		p.vmSpecs = append([]sim.VMSpec(nil), s.VMSpecs...)
	}
	migs := p.learner.Decide(snapshotFromRequest(&req, p.overload, p.tau))
	p.steps = append(p.steps, recordedStep{
		vmHost: append([]int(nil), s.VMHost...),
		vmUtil: append([]float64(nil), s.VMUtil...),
		want:   append([]sim.Migration(nil), migs...),
	})
	return p.steps[len(p.steps)-1].want
}

func (p *recorderPolicy) Observe(fb *sim.Feedback) {
	enter := time.Now()
	defer func() { p.policyTime += time.Since(enter) }()
	req := feedbackRequest(fb)
	p.steps[len(p.steps)-1].fb = req
	p.learner.Observe(wireFeedback(req))
}

// batch rebuilds the decide/batch request for recorded steps [off, off+n):
// each item carries the feedback for the step before it.
func (p *recorderPolicy) batch(off, n int) server.BatchDecideRequest {
	req := server.BatchDecideRequest{Items: make([]server.BatchDecideItem, n)}
	for k := range req.Items {
		st := &p.steps[off+k]
		state := server.StateRequest{Step: off + k, Hosts: p.hosts, VMs: make([]server.VMState, len(st.vmHost))}
		for j := range state.VMs {
			spec := p.vmSpecs[j]
			state.VMs[j] = server.VMState{
				Host: st.vmHost[j], Utilization: st.vmUtil[j],
				MIPS: spec.MIPS, RAMMB: spec.RAMMB, BandwidthMbps: spec.BandwidthMbps,
			}
		}
		req.Items[k].State = state
		if off+k > 0 {
			req.Items[k].Feedback = &p.steps[off+k-1].fb
		}
	}
	return req
}

// runBatchReplay records the world in set-up, then replays it as
// decide/batch requests with embedded feedback. The inputs are open-loop
// with respect to the world (a batch cannot depend on its own decisions)
// and closed-loop with respect to requests.
func runBatchReplay(e *env, w *workload, sz sizing, traced bool) (*result, error) {
	m := newMeasure()
	var (
		t       *target
		rec     *recorder
		stream  *recorderPolicy
		spec    server.SessionSpec
		simCfg  sim.Config
		cost    float64
		simStep time.Duration
		scratch string
	)
	setups, teardown, err := repeatSetup(sz.setups, func() (func(), error) {
		simr, setup, err := e.world(sz)
		if err != nil {
			return nil, err
		}
		simCfg = simr.Config()
		spec = server.SessionSpec{NumVMs: sz.vms, NumHosts: sz.hosts, Seed: setup.PolicySeed()}
		learner, err := core.New(core.DefaultConfig(sz.vms, sz.hosts, spec.Seed))
		if err != nil {
			return nil, err
		}
		stream = &recorderPolicy{learner: learner, overload: simCfg.OverloadThreshold, tau: simCfg.StepSeconds,
			steps: make([]recordedStep, 0, sz.steps)}
		start := time.Now()
		res, err := simr.Run(stream)
		if err != nil {
			return nil, err
		}
		simStep = (time.Since(start) - stream.policyTime) / time.Duration(sz.steps)
		cost = res.TotalCost()
		var teardown func()
		t, rec, scratch, teardown, err = serve(e, w, m, false, traced, spec)
		return teardown, err
	})
	if err != nil {
		return nil, err
	}
	defer func() { teardown() }()

	var mir *mirror
	var probe *capture[server.BatchDecideRequest, server.BatchDecideResponse]
	if traced {
		if mir, err = newMirror(spec, simCfg); err != nil {
			return nil, err
		}
		probe = newCapture[server.BatchDecideRequest, server.BatchDecideResponse](sz.steps / sz.batchItems)
	}
	start := time.Now()
	for off := 0; off < sz.steps; off += sz.batchItems {
		measured := off >= sz.warmup
		if measured && off-sz.batchItems < sz.warmup {
			m.begin()
		}
		n := sz.batchItems
		if off+n > sz.steps {
			n = sz.steps - off
		}
		req := stream.batch(off, n)
		var resp server.BatchDecideResponse
		d, err := call(rec, "batch", func(ctx context.Context) error {
			var e error
			resp, e = t.sess.DecideBatchCtx(ctx, req)
			return e
		})
		if err == nil && len(resp.Results) != n {
			err = fmt.Errorf("batch at step %d: %d results for %d items", off, len(resp.Results), n)
		}
		for k := 0; err == nil && k < n; k++ {
			st := &stream.steps[off+k]
			var migs []sim.Migration
			migs, err = checkResponse(off+k, &resp.Results[k], st.vmHost, nil, sz.hosts)
			if err == nil && !sameMigrations(migs, st.want) {
				err = fmt.Errorf("step %d: replay decided %v, the recording %v", off+k, migs, st.want)
			}
			m.decided(off+k, migs)
		}
		m.op(err)
		if err != nil {
			continue
		}
		if measured {
			m.decide = append(m.decide, d)
			m.callTime += d
			m.decisions += n
		}
		if mir != nil {
			mir.batch(&req, &resp)
			probe.keep(off/sz.batchItems, req, resp)
		}
	}
	wall := time.Since(start)
	m.end(e)

	var layers []metric
	if traced {
		loop := &wireLoop{t: t, rec: rec, m: m, sz: sz, mirror: mir}
		layers = batchLayers(loop, probe, scratch, simStep)
	}
	r := m.result(e, w, sz, traced, wall, setups, cost, 0)
	if traced {
		r.PerLayer, r.spans = layers, rec.spans
	}
	return r, nil
}

// --- sim-local ------------------------------------------------------------

// localLoop wraps the in-process learner and times every Decide and
// Observe call: here the learner and the simulator are the system.
type localLoop struct {
	learner *core.Megh
	m       *measure
	sz      sizing
	probe   *learnerProbe

	// observe holds the Observe call times: the core layer's number, not a
	// feedback request's.
	observe    samples
	policyTime time.Duration
}

func (l *localLoop) Name() string { return l.learner.Name() }

func (l *localLoop) Decide(s *sim.Snapshot) []sim.Migration {
	if s.Step == l.sz.warmup {
		l.m.begin()
	}
	start := time.Now()
	migs := l.learner.Decide(s)
	d := time.Since(start)
	l.policyTime += d
	l.m.op(checkMigrations(s.Step, migs, s.VMHost, s.HostFailed, s.NumHosts()))
	l.m.decided(s.Step, migs)
	if s.Step >= l.sz.warmup {
		l.m.decide = append(l.m.decide, d)
		l.m.decisions++
	}
	if l.probe != nil {
		l.probe.afterDecide()
	}
	return migs
}

func (l *localLoop) Observe(fb *sim.Feedback) {
	start := time.Now()
	l.learner.Observe(fb)
	d := time.Since(start)
	l.policyTime += d
	l.m.attempted++
	if fb.Step >= l.sz.warmup {
		l.observe = append(l.observe, d)
	}
}

func runSimLocal(e *env, w *workload, sz sizing, traced bool) (*result, error) {
	m := newMeasure()
	var (
		simr    *sim.Simulator
		learner *core.Megh
	)
	setups, _, err := repeatSetup(sz.setups, func() (func(), error) {
		var setup experiments.Setup
		var err error
		if simr, setup, err = e.world(sz); err != nil {
			return nil, err
		}
		learner, err = core.New(core.DefaultConfig(sz.vms, sz.hosts, setup.PolicySeed()))
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}

	loop := &localLoop{learner: learner, m: m, sz: sz}
	if traced {
		loop.probe = newLearnerProbe(learner)
	}
	start := time.Now()
	res, err := simr.Run(loop)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	m.end(e)

	var layers []metric
	if traced {
		scratch, err := e.dir(w.name)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
		simStep := (wall - loop.policyTime) / time.Duration(sz.steps)
		layers = localLayers(loop, scratch, simStep)
	}
	r := m.result(e, w, sz, traced, wall, setups, res.TotalCost(), float64(sz.steps)/wall.Seconds())
	r.PerLayer = layers
	return r, nil
}
