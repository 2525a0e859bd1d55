package trace

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestNewFileSinkRoundTrip exercises the Path-backed sink: events written
// through a file tracer must read back with ReadFile, Close must flush and
// release the file, and a second Close must be a no-op.
func TestNewFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	tr, err := New(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	ev := sampleDecideEvent()
	tr.Emit(&ev)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	evs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != ev.Kind || evs[0].Step != ev.Step {
		t.Fatalf("read back %+v", evs)
	}
}

func TestNewRejectsUnwritablePath(t *testing.T) {
	if _, err := New(Options{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")}); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}

// TestNewStdoutSink pins the "-" convention. The 64 KiB buffer is never
// flushed here, so nothing actually reaches the test's stdout.
func TestNewStdoutSink(t *testing.T) {
	tr, err := New(Options{Path: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.w == nil {
		t.Fatal("stdout sink not installed")
	}
	if tr.closer != nil {
		t.Fatal("stdout must not get a closer")
	}
	ev := sampleDecideEvent()
	tr.Emit(&ev)
	if tr.Events() != 1 {
		t.Fatalf("events = %d", tr.Events())
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadRejectsKindlessEvent(t *testing.T) {
	_, err := Read(strings.NewReader("{\"step\":3}\n"))
	if err == nil || !strings.Contains(err.Error(), "no kind") {
		t.Fatalf("err = %v", err)
	}
}

// TestTracerWithoutRing: RingSize < 0 disables the tail buffer entirely;
// AppendTail and Flush must degrade to no-ops, not nil-dereference.
func TestTracerWithoutRing(t *testing.T) {
	tr, err := New(Options{RingSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ev := sampleDecideEvent()
	tr.Emit(&ev)
	if got := tr.AppendTail(nil, 4); got != nil {
		t.Fatalf("AppendTail on ring-less tracer = %q", got)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush on writer-less tracer: %v", err)
	}
}

func TestRingTailEmpty(t *testing.T) {
	if got := newRing(4).tail(3); got != nil {
		t.Fatalf("tail of empty ring = %v", got)
	}
}

// divergenceFields collects the Field labels a Diff produced.
func divergenceFields(d *DiffResult) map[string]bool {
	out := make(map[string]bool, len(d.Divergences))
	for _, dv := range d.Divergences {
		out[dv.Field] = true
	}
	return out
}

// TestDiffCoversEveryField perturbs each compared field in turn and checks
// the diff names it — the oracle meghtrace users rely on when bisecting a
// nondeterminism report.
func TestDiffCoversEveryField(t *testing.T) {
	base := func() []Event {
		return []Event{
			{Kind: KindDecide, Step: 0, Policy: "Megh", Temperature: 3, QTableNNZ: 10, Digest: "7",
				Candidates: []Candidate{
					{VM: 1, Reason: ReasonOverload, From: 0, Dest: 2, Feasible: 3,
						QChosen: -1, QBest: -1, QStay: -2},
				}},
			{Kind: KindStep, Step: 0, Digest: "7", StepCost: 5, EnergyCost: 3, SLACost: 2,
				ActiveHosts: 4, OverloadedHosts: 1,
				Executed: []Migration{{VM: 1, From: 0, Dest: 2, Reason: "overload"}},
				Rejected: []Migration{{VM: 3, From: 1, Dest: 0}}},
			{Kind: KindBatch, Step: 0, BatchItems: 4},
		}
	}
	cases := []struct {
		field  string
		mutate func(evs []Event)
	}{
		{"digest", func(e []Event) { e[0].Digest = "99" }},
		{"policy", func(e []Event) { e[0].Policy = "Other" }},
		{"temp", func(e []Event) { e[0].Temperature = 1 }},
		{"qtable_nnz", func(e []Event) { e[0].QTableNNZ = 11 }},
		{"candidates", func(e []Event) { e[0].Candidates = nil }},
		{"candidate[0]", func(e []Event) { e[0].Candidates[0].VM = 9 }},
		{"candidate[0].dest", func(e []Event) { e[0].Candidates[0].Dest = 9 }},
		{"candidate[0].feasible", func(e []Event) { e[0].Candidates[0].Feasible = 9 }},
		{"candidate[0].q", func(e []Event) { e[0].Candidates[0].QBest = 9 }},
		{"step_cost", func(e []Event) { e[1].StepCost = 9 }},
		{"energy_cost", func(e []Event) { e[1].EnergyCost = 9 }},
		{"sla_cost", func(e []Event) { e[1].SLACost = 9 }},
		{"active_hosts", func(e []Event) { e[1].ActiveHosts = 9 }},
		{"overloaded_hosts", func(e []Event) { e[1].OverloadedHosts = 9 }},
		{"executed", func(e []Event) { e[1].Executed = nil }},
		{"executed[0]", func(e []Event) { e[1].Executed[0].Dest = 9 }},
		{"rejected[0]", func(e []Event) { e[1].Rejected[0].VM = 9 }},
		{"batch_items", func(e []Event) { e[2].BatchItems = 9 }},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			a, b := base(), base()
			tc.mutate(b)
			res := Diff(a, b, 0)
			if res.Identical() {
				t.Fatal("mutation not detected")
			}
			if !divergenceFields(res)[tc.field] {
				t.Fatalf("divergences %+v do not name %q", res.Divergences, tc.field)
			}
		})
	}
}

func TestFormatMigrations(t *testing.T) {
	if got := formatMigrations(nil); got != "[]" {
		t.Fatalf("empty = %q", got)
	}
	got := formatMigrations([]Migration{
		{VM: 1, From: 0, Dest: 2, Reason: "overload"},
		{VM: 3, From: 2, Dest: 0},
	})
	want := "[vm1:0→2(overload) vm3:2→0]"
	if got != want {
		t.Fatalf("formatMigrations = %q, want %q", got, want)
	}
}
