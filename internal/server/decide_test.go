package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"megh/internal/core"
	"megh/internal/sim"
	"megh/internal/trace"
)

func newDecideService(t *testing.T, maxInFlight int) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, MaxInFlight: maxInFlight})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// twinLearner is the reference the decide-path tests compare against: a
// same-seed core.Megh driven directly, with no service around it, fed the
// snapshots the handlers would build from the same requests.
type twinLearner struct {
	*core.Megh
	spec SessionSpec
}

func newTwinLearner(t *testing.T, svc *Service) twinLearner {
	t.Helper()
	spec := svc.def.spec
	m, err := core.New(core.DefaultConfig(spec.NumVMs, spec.NumHosts, spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return twinLearner{Megh: m, spec: spec}
}

func (tw twinLearner) observe(fb *FeedbackRequest) {
	tw.Observe(&sim.Feedback{Step: fb.Step, StepCost: fb.StepCost,
		EnergyCost: fb.EnergyCost, SLACost: fb.SLACost, ResourceCost: fb.ResourceCost})
}

func (tw twinLearner) decide(req StateRequest) DecideResponse {
	base := newSnapshotBase(&req, digestOf(&req))
	migs := tw.Decide(req.snapshot(base, tw.spec.OverloadThreshold, tw.spec.StepSeconds))
	resp := DecideResponse{Step: req.Step, Migrations: make([]MigrationDecision, 0, len(migs))}
	for _, m := range migs {
		resp.Migrations = append(resp.Migrations, MigrationDecision{VM: m.VM, Dest: m.Dest})
	}
	return resp
}

func (tw twinLearner) decideBatch(req BatchDecideRequest) BatchDecideResponse {
	var resp BatchDecideResponse
	for _, it := range req.Items {
		if it.Feedback != nil {
			tw.observe(it.Feedback)
		}
		resp.Results = append(resp.Results, tw.decide(it.State))
	}
	return resp
}

// decideEvents keeps a JSONL trace stream's decide events — the ones the
// learner writes; step and batch markers come from the handlers.
func decideEvents(stream []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
		if bytes.Contains(line, []byte(`"kind":"decide"`)) {
			out = append(out, line...)
		}
	}
	return out
}

// TestCoalescingPreservesDecisions is the end-to-end differential for the
// decide path: a request sequence (single decides, batches with
// feedback, bare feedback posts) through the service must produce the
// response bodies, learner stats and decide trace events that a same-seed
// learner produces when the same states and feedback are fed to it
// directly, byte for byte.
func TestCoalescingPreservesDecisions(t *testing.T) {
	var svcTrace, twinTrace bytes.Buffer
	tracer := func(w *bytes.Buffer) *trace.Tracer {
		tr, err := trace.New(trace.Options{W: w, RingSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	svcTracer, twinTracer := tracer(&svcTrace), tracer(&twinTrace)
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, Tracer: svcTracer})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	twin := newTwinLearner(t, svc)
	twin.Trace(twinTracer)

	base := ts.URL + "/v2/sessions/" + DefaultSessionID
	decisions := 0
	for step := 0; step < 18; step++ {
		var status int
		var body []byte
		var want any
		switch {
		case step%6 == 5:
			// A 3-item batch, the middle item carrying feedback.
			req := BatchDecideRequest{Items: []BatchDecideItem{
				{State: sessionWorld(4, 3, step)},
				{State: sessionWorld(4, 3, step+1),
					Feedback: &FeedbackRequest{Step: step, StepCost: 0.4, EnergyCost: 0.3, SLACost: 0.1}},
				{State: sessionWorld(4, 3, step+2)},
			}}
			status, body = rawPost(t, base+"/decide/batch", req)
			want = twin.decideBatch(req)
			decisions += len(req.Items)
		case step%6 == 2:
			fb := FeedbackRequest{Step: step - 1, StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1}
			status, body = rawPost(t, base+"/feedback", fb)
			twin.observe(&fb)
		default:
			req := sessionWorld(4, 3, step)
			status, body = rawPost(t, base+"/decide", req)
			want = twin.decide(req)
			decisions++
		}
		if status != http.StatusOK && status != http.StatusNoContent {
			t.Fatalf("step %d: status %d: %s", step, status, body)
		}
		var wantBody []byte
		if want != nil {
			raw, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			wantBody = append(raw, '\n')
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("request %d diverged:\ncoalescing: %s\ndirect:     %s", step, body, wantBody)
		}
	}
	st, err := svc.sessionStats(svc.def)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decisions != decisions || st.QTableNNZ != twin.QTableNNZ() || st.Temperature != twin.Temperature() {
		t.Fatalf("stats diverged: service %d decisions, nnz %d, temp %v; direct %d, %d, %v",
			st.Decisions, st.QTableNNZ, st.Temperature, decisions, twin.QTableNNZ(), twin.Temperature())
	}
	if err := svcTracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := twinTracer.Flush(); err != nil {
		t.Fatal(err)
	}
	got := decideEvents(svcTrace.Bytes())
	if len(got) == 0 || !bytes.Equal(got, twinTrace.Bytes()) {
		t.Fatalf("decide trace events differ between the coalesced and the direct learner:\ncoalescing: %s\ndirect:     %s",
			got, twinTrace.Bytes())
	}
}

// TestBatchAdmissionWeighting pins the per-item admission accounting: a
// K-item batch holds K gate slots, so with MaxInFlight=2 a 2-item batch
// waiting on the session lock forces a concurrent single decide to 429; and a batch
// larger than the whole gate clamps to capacity rather than being
// unadmittable.
func TestBatchAdmissionWeighting(t *testing.T) {
	svc, ts := newDecideService(t, 2)
	base := ts.URL + "/v2/sessions/" + DefaultSessionID

	// Holding the session lock keeps the admitted batch waiting in
	// withLearner, so it holds its gate slots for a deterministic window.
	svc.def.mu.Lock()
	unlock := sync.OnceFunc(svc.def.mu.Unlock)
	defer unlock() // a failed check below must not strand the batch's handler

	batch := BatchDecideRequest{Items: []BatchDecideItem{
		{State: sessionWorld(4, 3, 0)},
		{State: sessionWorld(4, 3, 1)},
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if status, body := rawPost(t, base+"/decide/batch", batch); status != http.StatusOK {
			t.Errorf("batch status %d: %s", status, body)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		svc.gate.mu.Lock()
		used := svc.gate.used
		svc.gate.mu.Unlock()
		if used == 2 {
			break // the batch holds both gate slots while it waits
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never took its gate slots (%d used)", used)
		}
		time.Sleep(time.Millisecond)
	}

	raw, _ := json.Marshal(sessionWorld(4, 3, 2))
	resp, err := http.Post(base+"/decide", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("single decide against a full weighted gate answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := svc.throttled.Value(); got != 1 {
		t.Fatalf("throttle counter = %d, want 1", got)
	}

	unlock()
	wg.Wait()

	// A 3-item batch outweighs the whole gate (capacity 2): it must clamp
	// and admit on the now-idle gate instead of being forever refusable.
	wide := BatchDecideRequest{Items: []BatchDecideItem{
		{State: sessionWorld(4, 3, 3)},
		{State: sessionWorld(4, 3, 4)},
		{State: sessionWorld(4, 3, 5)},
	}}
	if status, body := rawPost(t, base+"/decide/batch", wide); status != http.StatusOK {
		t.Fatalf("over-capacity batch status %d: %s (want 200 via clamped weight)", status, body)
	}
}

// TestDecideBatchEdgeCasesUnderCoalescing covers the batch-size boundaries
// of the decide path: empty (400), single item, exactly MaxBatchItems, and
// mixed single+batch traffic racing one session's lock.
func TestDecideBatchEdgeCasesUnderCoalescing(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		_, ts := newDecideService(t, 0)
		status, body := rawPost(t, ts.URL+"/v2/sessions/default/decide/batch", BatchDecideRequest{})
		if status != http.StatusBadRequest {
			t.Fatalf("empty batch answered %d: %s", status, body)
		}
	})

	t.Run("single-item", func(t *testing.T) {
		_, ts := newDecideService(t, 0)
		req := BatchDecideRequest{Items: []BatchDecideItem{{State: sessionWorld(4, 3, 0)}}}
		status, body := rawPost(t, ts.URL+"/v2/sessions/default/decide/batch", req)
		if status != http.StatusOK {
			t.Fatalf("single-item batch answered %d: %s", status, body)
		}
		var resp BatchDecideResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != 1 {
			t.Fatalf("want 1 result, got %s (%v)", body, err)
		}
	})

	t.Run("exactly-max", func(t *testing.T) {
		_, ts := newDecideService(t, 0)
		items := make([]BatchDecideItem, MaxBatchItems)
		for i := range items {
			items[i] = BatchDecideItem{State: sessionWorld(4, 3, i)}
		}
		status, body := rawPost(t, ts.URL+"/v2/sessions/default/decide/batch",
			BatchDecideRequest{Items: items})
		if status != http.StatusOK {
			t.Fatalf("max-size batch answered %d: %s", status, body[:min(len(body), 200)])
		}
		var resp BatchDecideResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != MaxBatchItems {
			t.Fatalf("want %d results, got %d (%v)", MaxBatchItems, len(resp.Results), err)
		}
	})

	t.Run("mixed-racing", func(t *testing.T) {
		// Singles and batches hammer one session concurrently; every
		// request must succeed and the session must account exactly one
		// decision per item.
		svc, ts := newDecideService(t, 0)
		base := ts.URL + "/v2/sessions/default"
		const (
			workers  = 4
			rounds   = 5
			batchLen = 3
		)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(2)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if status, body := rawPost(t, base+"/decide", sessionWorld(4, 3, g*100+r)); status != http.StatusOK {
						t.Errorf("racing single answered %d: %s", status, body)
					}
				}
			}(g)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					items := make([]BatchDecideItem, batchLen)
					for i := range items {
						items[i] = BatchDecideItem{State: sessionWorld(4, 3, g*100+r*10+i)}
					}
					status, body := rawPost(t, base+"/decide/batch", BatchDecideRequest{Items: items})
					if status != http.StatusOK {
						t.Errorf("racing batch answered %d: %s", status, body)
						continue
					}
					var resp BatchDecideResponse
					if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != batchLen {
						t.Errorf("racing batch: want %d results, got %s (%v)", batchLen, body, err)
					}
				}
			}(g)
		}
		wg.Wait()
		wantDecisions := workers*rounds + workers*rounds*batchLen
		if got := svc.def.decisions; got != wantDecisions {
			t.Fatalf("session accounted %d decisions, want %d", got, wantDecisions)
		}
	})
}

// BenchmarkDecideRound measures the server decide path at the service
// layer (no HTTP stack): one decideRound per call, under one hold of the
// session lock, as Service.decide runs it. "serial" is one caller;
// "parallel" is eight goroutines contending for the one session lock.
// `make check` gates the serial path's allocs/op.
func BenchmarkDecideRound(b *testing.B) {
	mk := func(b *testing.B) func() error {
		svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		req := sessionWorld(4, 3, 0)
		items := []decideItem{{state: &req, base: newSnapshotBase(&req, digestOf(&req))}}
		return func() error {
			return svc.mgr.withLearner(svc.def, func(l *core.Megh) error {
				svc.def.decideRound(l, items)
				return nil
			})
		}
	}
	b.Run("serial", func(b *testing.B) {
		decide := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := decide(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		decide := mk(b)
		// Force real goroutine concurrency even on GOMAXPROCS=1 machines,
		// so callers actually contend for the session lock.
		b.SetParallelism(8)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := decide(); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
