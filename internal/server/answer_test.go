package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"megh/internal/sim"
)

// answer is what writeDecisions writes for the decisions outs at steps:
// a decide's answer (one step) or, batched, a decide/batch's, binary when
// the request accepts elidedMediaType.
func answer(tb testing.TB, batched, isBinary bool, steps []int, outs [][]sim.Migration) []byte {
	tb.Helper()
	items := make([]decideItem, len(steps))
	for i, step := range steps {
		items[i].state = &StateRequest{Step: step}
	}
	req := httptest.NewRequest(http.MethodPost, "/decide", nil)
	want := "application/json"
	if isBinary {
		req.Header.Set("Accept", elidedMediaType)
		want = elidedMediaType
	}
	rec := httptest.NewRecorder()
	writeDecisions(rec, req, items, outs, batched)
	if got := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || got != want {
		tb.Fatalf("answer: %d under %q, want 200 under %q", rec.Code, got, want)
	}
	return rec.Body.Bytes()
}

// decodeAnswer decodes buf as Client.finish decodes a binary answer.
func decodeAnswer(buf []byte, out any) error {
	_, err := decodeWire(elidedMediaType, buf, out, nil)
	return err
}

// decisionsOf returns what a decoded answer holds as writeDecisions takes it.
func decisionsOf(v any) (steps []int, outs [][]sim.Migration) {
	one := func(r *DecideResponse) {
		migs := make([]sim.Migration, len(r.Migrations))
		for k, m := range r.Migrations {
			migs[k] = sim.Migration{VM: m.VM, Dest: m.Dest}
		}
		steps, outs = append(steps, r.Step), append(outs, migs)
	}
	switch v := v.(type) {
	case *DecideResponse:
		one(v)
	case *BatchDecideResponse:
		for i := range v.Results {
			one(&v.Results[i])
		}
	}
	return steps, outs
}

// newAnswer returns a zero answer of the kind the fuzz corpus's first byte
// names: 'b' a decide/batch's, anything else a decide's.
func newAnswer(kind byte) any {
	if kind == 'b' {
		return new(BatchDecideResponse)
	}
	return new(DecideResponse)
}

// answerSeed is one binary answer and the refusal it must meet ("" for a
// well-formed one); kind is as newAnswer reads it.
type answerSeed struct {
	name string
	kind byte
	body []byte
	err  string
}

func answerSeeds(tb testing.TB) []answerSeed {
	decide := answer(tb, false, true, []int{4}, [][]sim.Migration{{{VM: 300, Dest: 2}, {VM: 3, Dest: 7}}})
	batch := answer(tb, true, true, []int{35, 36}, [][]sim.Migration{{{VM: 12, Dest: 0}}, nil})
	return []answerSeed{
		{"decide", 'd', decide, ""},
		{"batch", 'b', batch, ""},
		{"empty-batch", 'b', []byte{0}, ""},
		{"no-migrations", 'd', []byte{8, 0}, ""},
		{"decide-trailing-byte", 'd', append(decide[:len(decide):len(decide)], 0), "1 trailing bytes"},
		{"batch-trailing-byte", 'b', append(batch[:len(batch):len(batch)], 9), "1 trailing bytes"},
		{"step-non-minimal", 'd', []byte{0x88, 0x00, 0}, "not minimal"},
		{"vm-non-minimal", 'd', []byte{8, 1, 0x80, 0x00, 2}, "not minimal"},
		{"migrations-too-many", 'd', []byte{8, 3, 1, 2, 3, 4}, "3 migrations do not fit"},
		{"results-too-many", 'b', []byte{2, 8, 0}, "2 results do not fit"},
		{"truncated-varint", 'd', []byte{8, 1, 0x80, 0x80}, "truncated"},
		{"empty-body", 'd', nil, "truncated"},
	}
}

// TestDecideAnswerRefusals holds the client's decoder to the refusals of the
// service's: trailing bytes, a varint in more bytes than it needs, a count
// the bytes left cannot hold. The table is also committed as
// FuzzDecideResponseBinary's seed corpus.
func TestDecideAnswerRefusals(t *testing.T) {
	for _, s := range answerSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			err := decodeAnswer(s.body, newAnswer(s.kind))
			if s.err == "" && err != nil || s.err != "" && (err == nil || !strings.Contains(err.Error(), s.err)) {
				t.Fatalf("decoder: %v, want an error with %q", err, s.err)
			}
			checkGolden(t, "fuzz/FuzzDecideResponseBinary/seed_"+s.name,
				[]byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", append([]byte{s.kind}, s.body...))))
		})
	}
	if err := decodeAnswer([]byte{0}, new(SessionInfo)); err == nil {
		t.Fatal("decodeAnswer took a binary SessionInfo")
	}
}

// answerTypes records the Content-Type of every decide and decide/batch
// answer it carries.
type answerTypes struct {
	mu   sync.Mutex
	seen []string
}

func (a *answerTypes) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && strings.Contains(r.URL.Path, "/decide") {
		a.mu.Lock()
		a.seen = append(a.seen, resp.Header.Get("Content-Type"))
		a.mu.Unlock()
	}
	return resp, err
}

// answerWorld is elideWorld with the hosts below 4 underloaded, but for the
// hot VM, so that the learner migrates.
func answerWorld(step int) StateRequest {
	w := elideWorld(step)
	for j := 1; j < len(w.VMs); j++ {
		if w.VMs[j].Host < 4 {
			w.VMs[j].Utilization = 0.05
		}
	}
	return w
}

// TestSessionClientReadsBinaryAnswers: a SessionClient's decides and batches
// come back binary — the full first decide, the elided ones after it and a
// batch alike — and decode to what a plain JSON caller reads from a twin
// session fed the same requests: the same decisions, to the last empty list.
func TestSessionClientReadsBinaryAnswers(t *testing.T) {
	_, ts := newSessionService(t, 0)
	ctx := context.Background()
	types := &answerTypes{}
	sc := NewClient(ts.URL, &http.Client{Transport: types}).Session("bin")
	twin := NewClient(ts.URL, nil).Session("json")
	for _, s := range []*SessionClient{sc, twin} {
		if _, err := s.Create(ctx, elideSpec); err != nil {
			t.Fatal(err)
		}
	}
	post := func(route string, body, out any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/sessions/json"+route, "application/json", bytes.NewReader(mustMarshal(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
			t.Fatalf("JSON caller: %d under %q", resp.StatusCode, ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	migrations, empty := 0, 0
	tally := func(rs ...DecideResponse) {
		for _, r := range rs {
			migrations += len(r.Migrations)
			if len(r.Migrations) == 0 {
				empty++
			}
		}
	}
	for step := 0; step < 12; step++ {
		got, err := sc.Decide(ctx, answerWorld(step))
		if err != nil {
			t.Fatal(err)
		}
		var want DecideResponse
		post("/decide", answerWorld(step), &want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: SessionClient read %+v, a JSON caller %+v", step, got, want)
		}
		tally(got)
		fb := FeedbackRequest{Step: step, StepCost: 0.1 * float64(step%4)}
		if err := sc.Feedback(ctx, fb); err != nil {
			t.Fatal(err)
		}
		if err := twin.Feedback(ctx, fb); err != nil {
			t.Fatal(err)
		}
	}
	var batch BatchDecideRequest
	for step := 12; step < 20; step++ {
		batch.Items = append(batch.Items, BatchDecideItem{
			State: answerWorld(step), Feedback: &FeedbackRequest{Step: step - 1, StepCost: 0.3}})
	}
	got, err := sc.DecideBatchCtx(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	var want BatchDecideResponse
	post("/decide/batch", batch, &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch: SessionClient read %+v, a JSON caller %+v", got, want)
	}
	tally(got.Results...)
	if migrations == 0 || empty == 0 {
		t.Fatalf("%d migrations and %d empty answers: the run compares too little", migrations, empty)
	}
	for i, ct := range types.seen {
		if ct != elidedMediaType {
			t.Fatalf("answer %d came as %q, want %q", i, ct, elidedMediaType)
		}
	}
	if len(types.seen) != 13 {
		t.Fatalf("%d answers recorded, want 13", len(types.seen))
	}
}
