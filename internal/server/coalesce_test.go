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
)

func newCoalesceService(t *testing.T, linger time.Duration, maxInFlight int) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(Config{
		NumVMs: 4, NumHosts: 3, Seed: 7,
		CoalesceLinger: linger,
		MaxInFlight:    maxInFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// waitWaiters blocks until the session's open coalescing round holds at
// least n waiters — the deterministic join-ordering hook for the
// concurrency tests.
func waitWaiters(t *testing.T, sess *session, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sess.coal.mu.Lock()
		got := 0
		if sess.coal.cur != nil {
			got = len(sess.coal.cur.waiters)
		}
		sess.coal.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("round never reached %d waiters (have %d)", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescingPreservesDecisions is the end-to-end differential for the
// coalescing path itself: the same request sequence (single decides,
// batches with feedback, bare feedback posts) against a coalescing-on and
// a coalescing-off service with the same seed must produce byte-identical
// response bodies, stats, and session trace streams.
func TestCoalescingPreservesDecisions(t *testing.T) {
	run := func(linger time.Duration) (bodies [][]byte, stats, tail []byte) {
		svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, CoalesceLinger: linger})
		if err != nil {
			t.Fatal(err)
		}
		_ = svc
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()

		base := ts.URL + "/v2/sessions/" + DefaultSessionID
		for step := 0; step < 18; step++ {
			var status int
			var body []byte
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
			case step%6 == 2:
				status, body = rawPost(t, base+"/feedback",
					FeedbackRequest{Step: step - 1, StepCost: 0.5, EnergyCost: 0.4, SLACost: 0.1})
			default:
				status, body = rawPost(t, base+"/decide", sessionWorld(4, 3, step))
			}
			if status != http.StatusOK && status != http.StatusNoContent {
				t.Fatalf("linger %v step %d: status %d: %s", linger, step, status, body)
			}
			bodies = append(bodies, body)
		}
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st SessionStatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		stats, _ = json.Marshal(st)
		tresp, err := http.Get(base + "/trace/tail?n=500")
		if err != nil {
			t.Fatal(err)
		}
		defer tresp.Body.Close()
		buf := new(bytes.Buffer)
		if _, err := buf.ReadFrom(tresp.Body); err != nil {
			t.Fatal(err)
		}
		return bodies, stats, buf.Bytes()
	}

	onBodies, onStats, onTail := run(time.Nanosecond) // coalescing path, no real linger
	offBodies, offStats, offTail := run(-1)           // disabled: direct path
	for i := range onBodies {
		if !bytes.Equal(onBodies[i], offBodies[i]) {
			t.Fatalf("request %d diverged:\ncoalescing: %s\ndirect:     %s", i, onBodies[i], offBodies[i])
		}
	}
	if !bytes.Equal(onStats, offStats) {
		t.Fatalf("stats diverged:\ncoalescing: %s\ndirect:     %s", onStats, offStats)
	}
	if !bytes.Equal(onTail, offTail) {
		t.Fatal("session trace streams differ between coalescing and direct paths")
	}
}

// TestConcurrentClientsCoalesceIntoOneLearnerCall pins the ISSUE's headline
// guarantee: two concurrent clients — one single decide, one 2-item batch —
// merge into ONE DecideBatch call, and the merged round decides exactly
// what one client posting the concatenated 3-item batch would get from a
// same-seed learner.
func TestConcurrentClientsCoalesceIntoOneLearnerCall(t *testing.T) {
	svc, ts := newCoalesceService(t, 30*time.Second, 0)
	base := ts.URL + "/v2/sessions/" + DefaultSessionID

	// Simulate an in-flight decide so the next round lingers: an open
	// lastDone makes the leader wait (capped by the 30s linger) until we
	// close it, giving the second client a deterministic join window.
	hold := make(chan struct{})
	svc.def.coal.mu.Lock()
	svc.def.coal.lastDone = hold
	svc.def.coal.mu.Unlock()

	single := sessionWorld(4, 3, 0)
	batch := BatchDecideRequest{Items: []BatchDecideItem{
		{State: sessionWorld(4, 3, 1)},
		{State: sessionWorld(4, 3, 2),
			Feedback: &FeedbackRequest{Step: 1, StepCost: 0.4, EnergyCost: 0.3, SLACost: 0.1}},
	}}

	var wg sync.WaitGroup
	var singleBody, batchBody []byte
	var singleStatus, batchStatus int
	wg.Add(1)
	go func() {
		defer wg.Done()
		singleStatus, singleBody = rawPost(t, base+"/decide", single)
	}()
	waitWaiters(t, svc.def, 1) // the single decide is now the lingering leader
	wg.Add(1)
	go func() {
		defer wg.Done()
		batchStatus, batchBody = rawPost(t, base+"/decide/batch", batch)
	}()
	waitWaiters(t, svc.def, 2) // the batch joined the same round
	close(hold)                // "previous decide" completes; the round fires
	wg.Wait()

	if singleStatus != http.StatusOK || batchStatus != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s / %s", singleStatus, batchStatus, singleBody, batchBody)
	}
	if got := svc.coalRounds.Value(); got != 1 {
		t.Fatalf("coalesce rounds = %d, want 1 (requests did not merge)", got)
	}
	if got := svc.coalMerged.Value(); got != 2 {
		t.Fatalf("merged requests = %d, want 2", got)
	}
	if got := svc.coalItems.Value(); got != 3 {
		t.Fatalf("coalesced items = %d, want 3", got)
	}

	// Reference: one client, one 3-item batch, same-seed coalescing-off
	// service. Its per-item results must equal the merged round's, sliced
	// back per client.
	_, refTS := newCoalesceService(t, -1, 0)
	refReq := BatchDecideRequest{Items: append(
		[]BatchDecideItem{{State: single}}, batch.Items...)}
	refStatus, refBody := rawPost(t, refTS.URL+"/v2/sessions/"+DefaultSessionID+"/decide/batch", refReq)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch status %d: %s", refStatus, refBody)
	}
	var ref BatchDecideResponse
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatal(err)
	}
	var gotSingle DecideResponse
	if err := json.Unmarshal(singleBody, &gotSingle); err != nil {
		t.Fatal(err)
	}
	var gotBatch BatchDecideResponse
	if err := json.Unmarshal(batchBody, &gotBatch); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref.Results[0])
	got, _ := json.Marshal(gotSingle)
	if !bytes.Equal(got, want) {
		t.Fatalf("single decide diverged from reference item 0:\ngot  %s\nwant %s", got, want)
	}
	want, _ = json.Marshal(ref.Results[1:])
	got, _ = json.Marshal(gotBatch.Results)
	if !bytes.Equal(got, want) {
		t.Fatalf("batch decide diverged from reference items 1-2:\ngot  %s\nwant %s", got, want)
	}
}

// TestBatchAdmissionWeighting pins the per-item admission accounting: a
// K-item batch holds K gate slots, so with MaxInFlight=2 a lingering
// 2-item batch forces a concurrent single decide to 429; and a batch
// larger than the whole gate clamps to capacity rather than being
// unadmittable.
func TestBatchAdmissionWeighting(t *testing.T) {
	svc, ts := newCoalesceService(t, 30*time.Second, 2)
	base := ts.URL + "/v2/sessions/" + DefaultSessionID

	// An open lastDone keeps the batch's round lingering, so it holds its
	// gate slots for a deterministic window.
	hold := make(chan struct{})
	svc.def.coal.mu.Lock()
	svc.def.coal.lastDone = hold
	svc.def.coal.mu.Unlock()

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
	waitWaiters(t, svc.def, 1) // the batch holds both gate slots while lingering

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

	close(hold)
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
// with coalescing enabled: empty (400), single item, exactly MaxBatchItems
// (fires on capacity, not linger), a joiner that would overflow an open
// round (displaces it), and mixed single+batch traffic racing one session.
func TestDecideBatchEdgeCasesUnderCoalescing(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		_, ts := newCoalesceService(t, time.Millisecond, 0)
		status, body := rawPost(t, ts.URL+"/v2/sessions/default/decide/batch", BatchDecideRequest{})
		if status != http.StatusBadRequest {
			t.Fatalf("empty batch answered %d: %s", status, body)
		}
	})

	t.Run("single-item", func(t *testing.T) {
		_, ts := newCoalesceService(t, time.Millisecond, 0)
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
		// A full-capacity batch must fire on the capacity trigger, not sit
		// out the (deliberately long) linger.
		_, ts := newCoalesceService(t, 30*time.Second, 0)
		items := make([]BatchDecideItem, MaxBatchItems)
		for i := range items {
			items[i] = BatchDecideItem{State: sessionWorld(4, 3, i)}
		}
		start := time.Now()
		status, body := rawPost(t, ts.URL+"/v2/sessions/default/decide/batch",
			BatchDecideRequest{Items: items})
		if status != http.StatusOK {
			t.Fatalf("max-size batch answered %d: %s", status, body[:min(len(body), 200)])
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("max-size batch took %v — capacity trigger did not fire", elapsed)
		}
		var resp BatchDecideResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != MaxBatchItems {
			t.Fatalf("want %d results, got %d (%v)", MaxBatchItems, len(resp.Results), err)
		}
	})

	t.Run("overflow-displaces-round", func(t *testing.T) {
		// A lingering single decide plus a full-size batch cannot share a
		// round (1+1024 > cap): the batch must fire the open round and lead
		// a fresh one, and both must complete without waiting out the linger.
		svc, ts := newCoalesceService(t, 30*time.Second, 0)
		base := ts.URL + "/v2/sessions/default"
		hold := make(chan struct{})
		defer close(hold)
		svc.def.coal.mu.Lock()
		svc.def.coal.lastDone = hold
		svc.def.coal.mu.Unlock()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, body := rawPost(t, base+"/decide", sessionWorld(4, 3, 0)); status != http.StatusOK {
				t.Errorf("displaced single decide answered %d: %s", status, body)
			}
		}()
		waitWaiters(t, svc.def, 1)
		items := make([]BatchDecideItem, MaxBatchItems)
		for i := range items {
			items[i] = BatchDecideItem{State: sessionWorld(4, 3, i+1)}
		}
		status, body := rawPost(t, base+"/decide/batch", BatchDecideRequest{Items: items})
		if status != http.StatusOK {
			t.Fatalf("displacing batch answered %d: %s", status, body[:min(len(body), 200)])
		}
		wg.Wait()
		if got := svc.coalRounds.Value(); got != 2 {
			t.Fatalf("coalesce rounds = %d, want 2 (displacement + fresh round)", got)
		}
	})

	t.Run("mixed-racing", func(t *testing.T) {
		// Singles and batches hammer one session concurrently with a real
		// linger window; every request must succeed and the session must
		// account exactly one decision per item.
		svc, ts := newCoalesceService(t, 200*time.Microsecond, 0)
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
		if got := svc.coalItems.Value(); got != int64(wantDecisions) {
			t.Fatalf("coalesced items = %d, want %d", got, wantDecisions)
		}
	})
}

// BenchmarkCoalescedDecide measures the server decide path at the service
// layer (no HTTP stack): "direct" is the coalescing-off reference,
// "serial" pays the full round machinery with no concurrency to merge
// (group commit means an uncontended round never waits on a timer), and
// "parallel" lets concurrent callers share rounds. `make check` gates the
// serial path's allocs/op.
func BenchmarkCoalescedDecide(b *testing.B) {
	mk := func(b *testing.B, linger time.Duration) (*Service, []core.BatchItem) {
		svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7, CoalesceLinger: linger})
		if err != nil {
			b.Fatal(err)
		}
		req := sessionWorld(4, 3, 0)
		base := newSnapshotBase(&req, staticDigest(req.Hosts, req.VMs))
		snap := req.snapshot(base, svc.def.spec.OverloadThreshold, svc.def.spec.StepSeconds)
		return svc, []core.BatchItem{{Snap: snap}}
	}
	b.Run("direct", func(b *testing.B) {
		svc, items := mk(b, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.coalesceDecide(svc.def, items); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		svc, items := mk(b, 0) // default linger; uncontended rounds skip it
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.coalesceDecide(svc.def, items); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		svc, items := mk(b, 0)
		// Force real goroutine concurrency even on GOMAXPROCS=1 machines,
		// so rounds actually merge behind in-flight decides.
		b.SetParallelism(8)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := svc.coalesceDecide(svc.def, items); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		rounds := svc.coalRounds.Value()
		if rounds > 0 {
			b.ReportMetric(float64(svc.coalItems.Value())/float64(rounds), "items/round")
		}
	})
}
