package server

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// batchSteps builds the N-step observe→decide stream both the sequential
// and the batched tests replay: varying worlds plus per-step cost feedback
// for the previous step.
func batchSteps(nVMs, nHosts, steps int) []BatchDecideItem {
	items := make([]BatchDecideItem, steps)
	for i := range items {
		items[i].State = sessionWorld(nVMs, nHosts, i)
		if i > 0 {
			items[i].Feedback = &FeedbackRequest{
				Step:     i - 1,
				StepCost: 0.3 + 0.05*float64(i%7),
			}
		}
	}
	return items
}

// TestSessionDecideBatchMatchesSequential drives two identically-specced
// sessions — one through N single decide/feedback requests, one through a
// single batch request — and requires identical decisions: the batch
// endpoint amortises HTTP round-trips and lock acquisitions, never
// semantics.
func TestSessionDecideBatchMatchesSequential(t *testing.T) {
	const nVMs, nHosts, steps = 6, 7, 25
	_, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	spec := SessionSpec{NumVMs: nVMs, NumHosts: nHosts, Seed: 42}

	seq := c.Session("seq")
	if _, err := seq.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	bat := c.Session("bat")
	if _, err := bat.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}

	items := batchSteps(nVMs, nHosts, steps)
	seqOut := make([]DecideResponse, steps)
	for i, it := range items {
		if it.Feedback != nil {
			if err := seq.Feedback(ctx, *it.Feedback); err != nil {
				t.Fatal(err)
			}
		}
		out, err := seq.Decide(ctx, it.State)
		if err != nil {
			t.Fatal(err)
		}
		seqOut[i] = out
	}

	batOut, err := bat.DecideBatchCtx(ctx, BatchDecideRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batOut.Results, seqOut) {
		t.Fatalf("batched decisions diverged from sequential:\nbatch %+v\nseq   %+v",
			batOut.Results, seqOut)
	}
	migrations := 0
	for _, r := range batOut.Results {
		migrations += len(r.Migrations)
	}
	if migrations == 0 {
		t.Fatal("stream produced no migrations — the comparison exercised nothing")
	}

	// Both learners consumed the same number of decisions, and the batch
	// session's bookkeeping reflects the last step.
	for _, sc := range []*SessionClient{seq, bat} {
		info, err := sc.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Decisions != steps || info.LastStep != steps-1 {
			t.Fatalf("session info %+v, want %d decisions ending at step %d",
				info, steps, steps-1)
		}
	}
}

// TestBatchedFeedbackTracesLikePerStep drives one stream through feedback
// and decide posts on one session and as a single batch with embedded
// feedback on another: the two trace tails must match event for event,
// step events included, once the batch marker is set aside — what lets
// meghtrace summary and diff read a batched run like an unbatched one.
func TestBatchedFeedbackTracesLikePerStep(t *testing.T) {
	const nVMs, nHosts, steps = 6, 7, 25
	_, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	spec := SessionSpec{NumVMs: nVMs, NumHosts: nHosts, Seed: 42}
	seq, bat := c.Session("seq"), c.Session("bat")
	for _, sc := range []*SessionClient{seq, bat} {
		if _, err := sc.Create(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}

	items := batchSteps(nVMs, nHosts, steps)
	for _, it := range items {
		if it.Feedback != nil {
			if err := seq.Feedback(ctx, *it.Feedback); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := seq.Decide(ctx, it.State); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bat.DecideBatchCtx(ctx, BatchDecideRequest{Items: items}); err != nil {
		t.Fatal(err)
	}

	tail := func(sc *SessionClient) []string {
		resp, err := sc.TraceTail(ctx, 1000)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ev := range resp.Events {
			if !strings.Contains(string(ev), `"kind":"batch"`) {
				out = append(out, string(ev))
			}
		}
		return out
	}
	seqTail, batTail := tail(seq), tail(bat)
	stepEvents := 0
	for _, ev := range seqTail {
		if strings.Contains(ev, `"kind":"step"`) {
			stepEvents++
		}
	}
	if stepEvents != steps-1 {
		t.Fatalf("per-step session traced %d step events, want %d", stepEvents, steps-1)
	}
	if !reflect.DeepEqual(batTail, seqTail) {
		t.Fatalf("batched trace diverged from per-step trace:\nbatch    %d events %q\nper-step %d events %q",
			len(batTail), batTail, len(seqTail), seqTail)
	}
}

// TestDecideBatchChunked: a stream posted as consecutive small batches
// decides exactly like the same stream posted as one batch, because one
// session's batches run serially — how a caller sends more than
// MaxBatchItems items.
func TestDecideBatchChunked(t *testing.T) {
	const nVMs, nHosts, steps = 6, 7, 25
	_, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	spec := SessionSpec{NumVMs: nVMs, NumHosts: nHosts, Seed: 42}

	one := c.Session("one-batch")
	if _, err := one.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	chunked := c.Session("chunked")
	if _, err := chunked.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}

	items := batchSteps(nVMs, nHosts, steps)
	oneOut, err := one.DecideBatchCtx(ctx, BatchDecideRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	// Chunks of 4 do not divide 25, so the tail chunk is ragged.
	var chunkedOut []DecideResponse
	for off := 0; off < len(items); off += 4 {
		resp, err := chunked.DecideBatchCtx(ctx, BatchDecideRequest{Items: items[off:min(off+4, len(items))]})
		if err != nil {
			t.Fatal(err)
		}
		chunkedOut = append(chunkedOut, resp.Results...)
	}
	if !reflect.DeepEqual(chunkedOut, oneOut.Results) {
		t.Fatalf("chunked decisions diverged from the single batch:\nchunked %+v\nbatch   %+v",
			chunkedOut, oneOut.Results)
	}
}

// TestSessionDecideBatchValidation pins the 400 paths — and that a
// rejected batch leaves the learner completely untouched (validation runs
// before the learner is locked, so a 400 never half-consumes a batch).
func TestSessionDecideBatchValidation(t *testing.T) {
	const nVMs, nHosts = 6, 7
	_, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	sc := c.Session("tenant-v")
	if _, err := sc.Create(ctx, SessionSpec{NumVMs: nVMs, NumHosts: nHosts, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v2/sessions/tenant-v"

	badState := batchSteps(nVMs, nHosts, 2)
	badState[1].State.Hosts = badState[1].State.Hosts[:nHosts-1] // wrong world size

	staleBase := batchSteps(nVMs, nHosts, 2)
	staleBase[1].State = elideSnapshot(&staleBase[1].State, "feedfacefeedface")

	badCost := batchSteps(nVMs, nHosts, 2)
	badCost[1].Feedback.StepCost = -1

	// A refused item is refused alone too — its state posted to /decide, its
	// feedback to /feedback — with the same status and the batch's message
	// without the item prefix.
	cases := []struct {
		name      string
		req       BatchDecideRequest
		status    int
		errLike   string
		alonePath string
		alone     any
	}{
		{"empty", BatchDecideRequest{}, 400, "no items", "", nil},
		{"oversized", BatchDecideRequest{Items: make([]BatchDecideItem, MaxBatchItems+1)}, 400,
			fmt.Sprintf("limit %d", MaxBatchItems), "", nil},
		{"wrong-world-size", BatchDecideRequest{Items: badState}, 400, "batch item 1",
			"/decide", badState[1].State},
		{"stale-base", BatchDecideRequest{Items: staleBase}, 409, "batch item 1: ",
			"/decide", staleBase[1].State},
		{"negative-cost", BatchDecideRequest{Items: badCost}, 400, "batch item 1: negative step cost",
			"/feedback", badCost[1].Feedback},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := rawPost(t, url+"/decide/batch", tc.req)
			if status != tc.status {
				t.Fatalf("status %d, want %d; body %s", status, tc.status, body)
			}
			if !strings.Contains(string(body), tc.errLike) {
				t.Fatalf("body %s missing %q", body, tc.errLike)
			}
			if tc.alone == nil {
				return
			}
			var batchErr, aloneErr errorResponse
			if err := json.Unmarshal(body, &batchErr); err != nil {
				t.Fatal(err)
			}
			status, body = rawPost(t, url+tc.alonePath, tc.alone)
			if status != tc.status {
				t.Fatalf("alone to %s: status %d, want %d; body %s", tc.alonePath, status, tc.status, body)
			}
			if err := json.Unmarshal(body, &aloneErr); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(aloneErr.Error, "batch item") || "batch item 1: "+aloneErr.Error != batchErr.Error {
				t.Fatalf("alone to %s: error %q, batch error %q", tc.alonePath, aloneErr.Error, batchErr.Error)
			}
		})
	}

	// None of the rejected requests reached the learner or gave the session
	// a base.
	stats, err := sc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Decisions != 0 {
		t.Fatalf("rejected requests consumed %d decisions", stats.Decisions)
	}
	if info, err := sc.Info(ctx); err != nil {
		t.Fatal(err)
	} else if info.SnapshotBase != "" {
		t.Fatalf("rejected requests left base %q", info.SnapshotBase)
	}

	// Unknown session ids 404 like every other session route.
	status, _ := rawPost(t, ts.URL+"/v2/sessions/nope/decide/batch",
		BatchDecideRequest{Items: batchSteps(nVMs, nHosts, 1)})
	if status != 404 {
		t.Fatalf("unknown session answered %d, want 404", status)
	}
}
