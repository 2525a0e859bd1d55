package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// tiny shrinks a workload to an 8×12 world and 48 steps, keeping its
// shape: batches stay batches, the cluster keeps its checkpoints.
func tiny(w *workload) sizing {
	sz := w.size(1)
	sz.hosts, sz.vms = 8, 12
	sz.steps, sz.warmup, sz.setups = 48, 4, 2
	if sz.traceSteps > 0 {
		sz.traceSteps = 24
	}
	if sz.batchItems > 0 {
		sz.batchItems = 4
	}
	return sz
}

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that got holds exactly the named metrics, with
// their units, each finite and non-negative.
func checkMetrics(t *testing.T, where string, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", where, len(got), len(want))
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", where, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", where, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("%s: %s = %v", where, w.Name, m.Value)
		}
	}
}

// TestSmoke runs all five workloads at a tiny scale, untraced and traced,
// and checks what the numbers depend on: every metric BENCHMARK.json
// names is emitted, the checks pass, two same-seed runs decide
// identically, the span file parses with every child inside its parent,
// and no goroutine outlives its workload.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	before := runtime.NumGoroutine()
	e := &env{seed: 3, tmp: t.TempDir()}
	var spans []span
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		results, err := runPasses(e, w, tiny(w), options{trace: -1, spans: "spans.jsonl"})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(results) != 2 {
			t.Fatalf("%s: %d passes, want untraced and traced", w.name, len(results))
		}
		untraced, traced := results[0], results[1]
		for _, r := range results {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.name, r.Failed, r.Attempted, r.Errors)
			}
			checkMetrics(t, w.name, r.EndToEnd, spec.EndToEnd)
			var out bytes.Buffer
			printResult(&out, r)
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var line struct {
				Correct           *bool
				Attempted, Failed *int
				Metrics           map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || line.Correct == nil || !*line.Correct {
				t.Errorf("%s: last output line is not a passing result: %s", w.name, lines[len(lines)-1])
			}
		}
		// trace.overhead_ratio is reported only when both passes ran, so it
		// is not among BENCHMARK.json's per-layer metrics.
		last := traced.PerLayer[len(traced.PerLayer)-1]
		if last.Name != "trace.overhead_ratio" || !(last.Value > 0) {
			t.Errorf("%s: trace.overhead_ratio = %+v", w.name, last)
		}
		checkMetrics(t, w.name+" traced", traced.PerLayer[:len(traced.PerLayer)-1], spec.PerLayer)
		if untraced.Digest != traced.Digest {
			t.Errorf("%s: same-seed runs decided differently: %s vs %s", w.name, untraced.Digest, traced.Digest)
		}
		if w.name != "sim-local" {
			if len(traced.Budget) == 0 {
				t.Errorf("%s: no budget table", w.name)
			}
			if v, _ := traced.metric("core.mirror_agreement"); v != 1 {
				t.Errorf("%s: mirror learner agreed on %.3f of the steps", w.name, v)
			}
			if len(traced.spans) == 0 {
				t.Errorf("%s: no spans", w.name)
			}
		}
		if w.name == "cluster-hop" {
			if v, _ := traced.metric("proxy.share"); v != 1 {
				t.Errorf("cluster-hop: proxy.share = %v", v)
			}
		}
		spans = append(spans, traced.spans...)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := make(map[string]span)
	var read []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file: %v in %s", err, sc.Text())
		}
		byID[s.ID] = s
		read = append(read, s)
	}
	if len(read) != len(spans) {
		t.Fatalf("span file holds %d spans, %d were recorded", len(read), len(spans))
	}
	children := 0
	for _, s := range read {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.ID)
		}
		if s.Parent == "" {
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s names a parent %s that was not recorded", s.ID, s.Parent)
		} else if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%d,%d] lies outside its parent %s [%d,%d]", s.ID, s.Start, s.End, p.ID, p.Start, p.End)
		}
	}
	if children == 0 {
		t.Error("no span has a parent")
	}

	// Connection goroutines end a moment after their listener closes.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompare checks the -compare verdicts: equal files agree, a metric
// beyond its bound or a digest that differs is unresolved.
func TestCompare(t *testing.T) {
	spec := readSpec(t)
	mk := func(p50 float64, digest string) string {
		r := &result{Workload: "small-wire", Seed: 1, Steps: 10, Digest: digest}
		for _, m := range spec.EndToEnd {
			r.EndToEnd = append(r.EndToEnd, metric{m.Name, 1, m.Unit})
		}
		r.EndToEnd[1].Value = p50
		raw, err := json.Marshal(outFile{Seed: 1, Seconds: 1, Results: []*result{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "out.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1, "d1")
	for _, tc := range []struct {
		name  string
		other string
		want  int
	}{
		{"same", mk(1, "d1"), 0},
		{"slower beyond any bound", mk(2, "d1"), 1},
		{"digest differs", mk(1, "d2"), 1},
	} {
		var out, errOut bytes.Buffer
		if got := compareFiles(base, tc.other, &out, &errOut); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, out.String(), errOut.String())
		}
	}
}
