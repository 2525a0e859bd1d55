package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func sampleDecideEvent() Event {
	return Event{
		Kind: KindDecide, Step: 7,
		Digest: DigestString(0xdeadbeef), Policy: "Megh",
		Temperature: 2.97, QTableNNZ: 41,
		Candidates: []Candidate{
			{VM: 3, Reason: ReasonOverload, From: 1, Dest: 2, Feasible: 5,
				QChosen: -0.25, QBest: -0.5, QStay: 0.125},
			{VM: 9, Reason: ReasonExploration, From: 4, Dest: 4, Feasible: 1},
		},
		Spans: []Span{{Name: "project", Nanos: 1200}, {Name: "update", Nanos: 800}},
	}
}

func sampleStepEvent() Event {
	return Event{
		Kind: KindStep, Step: 7,
		Digest:     DigestString(0xfeedface),
		Executed:   []Migration{{VM: 3, From: 1, Dest: 2, Seconds: 13.5}},
		Rejected:   []Migration{{VM: 9, From: 4, Dest: 0, Reason: RejectInfeasible}},
		EnergyCost: 0.31, SLACost: 0.07, ResourceCost: 0.01, StepCost: 0.39,
		ActiveHosts: 12, OverloadedHosts: 1, FailedHosts: 2,
		Woken: []int{2}, Slept: []int{5, 6}, DecideNanos: 4000,
	}
}

// The hand-rolled encoder must produce exactly what encoding/json can
// decode back into an equal Event — reader.go and meghtrace depend on it.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	batch := Event{Kind: KindBatch, Step: 7, BatchItems: 32, DecideNanos: 64000}
	for _, ev := range []Event{sampleDecideEvent(), sampleStepEvent(), batch, {Kind: KindStep, Step: 0}} {
		b := appendEventJSON(nil, &ev)
		var got Event
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
		if !reflect.DeepEqual(ev, got) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v\njson: %s", ev, got, b)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	ev := sampleDecideEvent()
	a := appendEventJSON(nil, &ev)
	b := appendEventJSON(nil, &ev)
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding not deterministic:\n%s\n%s", a, b)
	}
}

func TestAppendStringEscaping(t *testing.T) {
	cases := map[string]string{
		`plain`:        `"plain"`,
		`a"b`:          `"a\"b"`,
		`back\slash`:   `"back\\slash"`,
		"tab\tnl\n":    `"tab\tnl\n"`,
		"ctrl\x01byte": `"ctrl\u0001byte"`,
	}
	for in, want := range cases {
		if got := string(appendString(nil, in)); got != want {
			t.Errorf("appendString(%q) = %s, want %s", in, got, want)
		}
		var back string
		if err := json.Unmarshal(appendString(nil, in), &back); err != nil || back != in {
			t.Errorf("appendString(%q) does not round trip: %q, %v", in, back, err)
		}
	}
}

func TestTracerEmitAndRead(t *testing.T) {
	var buf bytes.Buffer
	tr, err := New(Options{W: &buf, RingSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	d, s := sampleDecideEvent(), sampleStepEvent()
	tr.Emit(&d)
	tr.Emit(&s)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != KindDecide || events[1].Kind != KindStep {
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	if !reflect.DeepEqual(events[0], d) || !reflect.DeepEqual(events[1], s) {
		t.Errorf("events do not survive the sink round trip")
	}
	if tr.Events() != 2 {
		t.Errorf("Events() = %d, want 2", tr.Events())
	}
}

func TestReadRejectsMalformedLine(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"kind\":\"step\",\"step\":1}\nnot json\n")); err == nil {
		t.Fatal("want error for malformed line")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name line 2: %v", err)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Timings() {
		t.Fatal("nil tracer must report disabled")
	}
	ev := sampleStepEvent()
	tr.Emit(&ev) // must not panic
	if got := tr.AppendTail(nil, 10); got != nil {
		t.Fatalf("nil tracer AppendTail = %q", got)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 0 {
		t.Fatal("nil tracer counted events")
	}
}

// tailEvents splits what AppendTail appends into its events, each the raw
// JSON object AppendTail wrote.
func tailEvents(t *testing.T, tr *Tracer, n int) []json.RawMessage {
	t.Helper()
	var evs []json.RawMessage
	if err := json.Unmarshal(append(append([]byte{'['}, tr.AppendTail(nil, n)...), ']'), &evs); err != nil {
		t.Fatalf("AppendTail(%d) is not a JSON array body: %v", n, err)
	}
	return evs
}

func TestRingWrapAndTail(t *testing.T) {
	tr, err := New(Options{RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tr.Emit(&Event{Kind: KindStep, Step: i})
	}
	tail := tailEvents(t, tr, 0) // all retained
	if len(tail) != 4 {
		t.Fatalf("ring retained %d, want 4", len(tail))
	}
	for i, raw := range tail {
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		if want := 6 + i; ev.Step != want {
			t.Errorf("tail[%d].Step = %d, want %d", i, ev.Step, want)
		}
	}
	if got := tailEvents(t, tr, 2); len(got) != 2 {
		t.Fatalf("AppendTail(2) returned %d", len(got))
	} else {
		var ev Event
		_ = json.Unmarshal(got[1], &ev)
		if ev.Step != 9 {
			t.Errorf("AppendTail(2) newest step = %d, want 9", ev.Step)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	tr, _ := New(Options{RingSize: 8})
	tr.Emit(&Event{Kind: KindStep, Step: 1})
	tr.Emit(&Event{Kind: KindStep, Step: 2})
	tail := tailEvents(t, tr, 100)
	if len(tail) != 2 {
		t.Fatalf("got %d events, want 2", len(tail))
	}
}

func TestDigest64(t *testing.T) {
	vmHost := []int{0, 1, 2, 1}
	failed := []bool{false, true, false}
	a := Digest64(3, vmHost, failed)
	if b := Digest64(3, vmHost, failed); a != b {
		t.Fatal("digest not deterministic")
	}
	if b := Digest64(4, vmHost, failed); a == b {
		t.Fatal("digest ignores step")
	}
	vmHost[3] = 2
	if b := Digest64(3, vmHost, failed); a == b {
		t.Fatal("digest ignores placement")
	}
	vmHost[3] = 1
	failed[1] = false
	if b := Digest64(3, vmHost, failed); a == b {
		t.Fatal("digest ignores failures")
	}
	if len(DigestString(1)) != 16 {
		t.Fatalf("DigestString not fixed width: %q", DigestString(1))
	}
}

func TestSpanRecorder(t *testing.T) {
	var rec SpanRecorder
	rec.Reset()
	rec.Mark("a")
	rec.Mark("b")
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.Nanos < 0 {
			t.Errorf("span %s has negative duration %d", s.Name, s.Nanos)
		}
	}
	rec.Reset()
	if len(rec.Spans()) != 0 {
		t.Fatal("Reset did not clear spans")
	}
	var nilRec *SpanRecorder
	nilRec.Reset()
	nilRec.Mark("x")
	if nilRec.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
}
