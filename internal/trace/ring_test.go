package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// fillEvent refills ev in place, reusing its slices as a caller that recycles
// one Event does, with values that depend on i: every slice field holds 1 to
// 3 entries, none of them zero.
func fillEvent(ev *Event, i int) {
	ints := func(s []int) []int {
		s = s[:0]
		for k := 0; k <= i%3; k++ {
			s = append(s, i+k+1)
		}
		return s
	}
	cands, spans, exec, rej := ev.Candidates[:0], ev.Spans[:0], ev.Executed[:0], ev.Rejected[:0]
	for k := 0; k <= i%3; k++ {
		cands = append(cands, Candidate{VM: i + k + 1, Reason: ReasonOverload, From: 1, Dest: k,
			Feasible: 2, QChosen: -0.5 * float64(i), QBest: 0.25, QStay: 1e-9})
		spans = append(spans, Span{Name: "update", Nanos: int64(i + k + 1)})
		exec = append(exec, Migration{VM: i + k + 1, From: 1, Dest: 2, Seconds: 13.5})
		rej = append(rej, Migration{VM: i + k + 1, From: 4, Dest: 0, Reason: RejectInfeasible})
	}
	*ev = Event{
		Kind: KindDecide, Step: i, Digest: DigestString(uint64(i)), Policy: "Megh",
		Temperature: 1 / float64(i+1), QTableNNZ: i + 1,
		Candidates: cands, Spans: spans, Executed: exec, Rejected: rej,
		EnergyCost: 0.3, SLACost: 0.1 * float64(i), ResourceCost: 0.01, StepCost: 0.4,
		Woken: ints(ev.Woken), Slept: ints(ev.Slept), Arrived: ints(ev.Arrived), Departed: ints(ev.Departed),
		LiveVMs: 12, BatchItems: 1, DecideNanos: int64(i),
	}
}

// sliceFields returns every slice field of ev, found by reflection, so that a
// slice field added to Event is one these tests cover.
func sliceFields(ev *Event) []reflect.Value {
	var out []reflect.Value
	v := reflect.ValueOf(ev).Elem()
	for f := 0; f < v.NumField(); f++ {
		if v.Field(f).Kind() == reflect.Slice {
			out = append(out, v.Field(f))
		}
	}
	return out
}

// The ring keeps events and formats them only when read: what AppendTail writes
// is, byte for byte, what the stream wrote for the same events, even though
// the caller overwrote every slice of the event after each Emit.
func TestRingTailMatchesStream(t *testing.T) {
	var stream bytes.Buffer
	tr, err := New(Options{W: &stream, RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	for i := 0; i < 11; i++ {
		fillEvent(&ev, i)
		tr.Emit(&ev)
		for _, s := range sliceFields(&ev) {
			if s.Len() == 0 {
				t.Fatalf("fillEvent leaves a %s empty", s.Type())
			}
			for k := 0; k < s.Len(); k++ {
				s.Index(k).Set(reflect.Zero(s.Type().Elem()))
			}
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(stream.Bytes(), []byte{'\n'}), []byte{'\n'})
	for n, want := range map[int]int{0: 4, 1: 1, 3: 3, 4: 4, 9: 4} {
		tail := tailEvents(t, tr, n)
		if len(tail) != want {
			t.Fatalf("AppendTail(%d) returned %d events, want %d", n, len(tail), want)
		}
		for k, got := range tail {
			if line := lines[len(lines)-want+k]; !bytes.Equal(got, line) {
				t.Fatalf("AppendTail(%d)[%d]:\n got %s\nwant %s", n, k, got, line)
			}
		}
	}
}

// Once the ring has wrapped, each slot reuses the slices it grew for the
// events it held before, so recording an event allocates nothing.
func TestRingPushAllocs(t *testing.T) {
	r := newRing(4)
	var evs [3]Event
	for i := range evs {
		fillEvent(&evs[i], i)
	}
	// Every slot holds each shape once: 12 pushes, 3 shapes, 4 slots.
	for i := 0; i < 12; i++ {
		r.push(&evs[i%3])
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { r.push(&evs[i%3]); i++ }); allocs != 0 {
		t.Fatalf("push allocates %v times once the ring has wrapped, want 0", allocs)
	}
}
