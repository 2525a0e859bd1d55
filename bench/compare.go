package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkJSON is the part of BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findBenchmarkJSON looks for BENCHMARK.json in the working directory and
// its parent (the repository root under `go run -C bench`).
func findBenchmarkJSON() (string, error) {
	for _, dir := range []string{".", ".."} {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func readOutFile(path string) (*outFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untracedByWorkload indexes a file's untraced results.
func untracedByWorkload(f *outFile) map[string]*result {
	out := make(map[string]*result)
	for _, r := range f.Results {
		if !r.Traced {
			out[r.Workload] = r
		}
	}
	return out
}

// compareFiles reports, per workload × end-to-end metric, both values,
// the relative difference and the bound from BENCHMARK.json. One pair of
// runs cannot tell a regression from noise, so a difference beyond the
// bound reads "unresolved", never "ok"; any of them, or a digest that
// differs, makes the exit status non-zero.
func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	specPath, err := findBenchmarkJSON()
	if err != nil {
		return fail(err)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fail(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", specPath, err))
	}
	a, err := readOutFile(aPath)
	if err != nil {
		return fail(err)
	}
	b, err := readOutFile(bPath)
	if err != nil {
		return fail(err)
	}
	ra, rb := untracedByWorkload(a), untracedByWorkload(b)

	bad := 0
	fmt.Fprintf(stdout, "%-14s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "status")
	for _, w := range workloads {
		x, y := ra[w.name], rb[w.name]
		if x == nil || y == nil {
			continue
		}
		row := func(name string, bound float64, note string) {
			va, okA := x.metric(name)
			vb, okB := y.metric(name)
			if !okA || !okB {
				bad++
				fmt.Fprintf(stdout, "%-14s %-24s missing\n", w.name, name)
				return
			}
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / math.Abs(va)
			}
			status := "ok"
			if math.Abs(diff) > bound {
				status = "unresolved"
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-24s %14.4f %14.4f %+8.2f%% %6.1f%%  %s%s\n",
				w.name, name, va, vb, 100*diff, 100*bound, status, note)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Bound, "")
		}
		// The end-to-end metrics BENCHMARK.json cannot hold (not defined on
		// every workload) get the widest bound its schema allows.
		for _, m := range x.Extra {
			row(m.Name, 0.25, "  (not in BENCHMARK.json)")
		}
		status := "ok"
		switch {
		case x.Seed != y.Seed || x.Steps != y.Steps:
			status = "not comparable (seed or step count differs)"
		case x.Digest != y.Digest:
			status = "DIFFERS"
			bad++
		}
		fmt.Fprintf(stdout, "%-14s %-24s %s\n", w.name, "digest", status)
		if x.Failed+y.Failed > 0 {
			bad++
			fmt.Fprintf(stdout, "%-14s %-24s a %d, b %d\n", w.name, "failed operations", x.Failed, y.Failed)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d unresolved\n", bad)
		return 1
	}
	return 0
}
