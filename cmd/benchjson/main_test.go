package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: megh/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDecide/no-tracer-nocost-8         	   10000	      2648 ns/op	      29 B/op	       0 allocs/op
BenchmarkDecide/no-tracer-8                	   10000	     50041 ns/op	     412 B/op	       1 allocs/op
BenchmarkFigure6_Megh 	      20	  13039653 ns/op	         0.009982 largest_grid_decide_ms	 4498456 B/op	   12148 allocs/op
PASS
ok  	megh/internal/core	0.603s
`

func TestParse(t *testing.T) {
	results, cpu, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", cpu)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	// Sorted by name; GOMAXPROCS suffix stripped.
	if results[0].Name != "BenchmarkDecide/no-tracer" {
		t.Fatalf("first result %q", results[0].Name)
	}
	if results[1].Name != "BenchmarkDecide/no-tracer-nocost" {
		t.Fatalf("second result %q", results[1].Name)
	}
	nocost := results[1]
	if nocost.Iterations != 10000 || nocost.NsPerOp != 2648 || nocost.BytesPerOp != 29 || nocost.AllocsPerOp != 0 {
		t.Fatalf("nocost parsed as %+v", nocost)
	}
	fig := results[2]
	if fig.Name != "BenchmarkFigure6_Megh" {
		t.Fatalf("third result %q", fig.Name)
	}
	if got := fig.Extra["largest_grid_decide_ms"]; got != 0.009982 {
		t.Fatalf("custom metric = %v", got)
	}
}

// TestParseKeepsFastestRep: -count=N repetitions collapse to the rep with
// the lowest ns/op — the noise-robust estimate the regression gate compares.
func TestParseKeepsFastestRep(t *testing.T) {
	reps := `BenchmarkDecide/no-tracer-8	10000	52000 ns/op	412 B/op	1 allocs/op
BenchmarkDecide/no-tracer-8	10000	50041 ns/op	412 B/op	1 allocs/op
BenchmarkDecide/no-tracer-8	10000	61000 ns/op	412 B/op	1 allocs/op
`
	results, _, err := parse(strings.NewReader(reps))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("parsed %d results, want 1 after rep collapse", len(results))
	}
	if results[0].NsPerOp != 50041 {
		t.Fatalf("kept %v ns/op, want the fastest rep 50041", results[0].NsPerOp)
	}
}

func TestAssertZeroAlloc(t *testing.T) {
	results, _, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := assertZeroAlloc(results, []string{"BenchmarkDecide/no-tracer-nocost"}); err != nil {
		t.Fatalf("gate failed on zero-alloc benchmark: %v", err)
	}
	if err := assertZeroAlloc(results, []string{"BenchmarkDecide/no-tracer"}); err == nil {
		t.Fatal("gate passed on allocating benchmark")
	}
	if err := assertZeroAlloc(results, []string{"BenchmarkMissing"}); err == nil {
		t.Fatal("gate passed on missing benchmark")
	}
}

func TestAssertMaxAllocs(t *testing.T) {
	results, _, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := assertMaxAllocs(results, []string{"BenchmarkDecide/no-tracer=1"}); err != nil {
		t.Fatalf("gate failed at the exact limit: %v", err)
	}
	if err := assertMaxAllocs(results, []string{"BenchmarkFigure6_Megh=100"}); err == nil {
		t.Fatal("gate passed a benchmark far over its limit")
	}
	if err := assertMaxAllocs(results, []string{"BenchmarkMissing=5"}); err == nil {
		t.Fatal("gate passed on missing benchmark")
	}
	if err := assertMaxAllocs(results, []string{"BenchmarkDecide/no-tracer"}); err == nil {
		t.Fatal("gate accepted an entry without =N")
	}
	if err := assertMaxAllocs(results, []string{"BenchmarkDecide/no-tracer=-3"}); err == nil {
		t.Fatal("gate accepted a negative limit")
	}
}

func TestAssertMaxBytes(t *testing.T) {
	results, _, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := assertMaxBytes(results, []string{"BenchmarkDecide/no-tracer=412"}); err != nil {
		t.Fatalf("gate failed at the exact limit: %v", err)
	}
	if err := assertMaxBytes(results, []string{"BenchmarkDecide/no-tracer=411"}); err == nil {
		t.Fatal("gate passed a benchmark over its limit")
	}
}

func TestRunWritesJSON(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sample), &out, "abc1234", "-", "", "", "", "", "", 0.20); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{`"commit": "abc1234"`, `"ns_op": 50041`, `"allocs_op": 0`, `"largest_grid_decide_ms": 0.009982`} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("PASS\n"), &out, "", "-", "", "", "", "", "", 0.20); err == nil {
		t.Fatal("empty benchmark input accepted")
	}
}

// writeBaseline produces a baseline document from benchmark text via run(),
// exactly as `make bench-json` would.
func writeBaseline(t *testing.T, benchText string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var out strings.Builder
	if err := run(strings.NewReader(benchText), &out, "base", path, "", "", "", "", "", 0.20); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	base := writeBaseline(t, sample)
	// Fresh run 10% slower on one benchmark: inside the 20% budget.
	fresh := strings.Replace(sample, "2648 ns/op", "2900 ns/op", 1)
	var out strings.Builder
	if err := run(strings.NewReader(fresh), &out, "", "", "", "", "", "", base, 0.20); err != nil {
		t.Fatalf("within-tolerance run failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "regression gate passed") {
		t.Fatalf("missing pass message:\n%s", out.String())
	}
}

func TestCheckFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, sample)
	// 2648 → 4000 ns/op is a 51% regression; the error must name the
	// benchmark and both values.
	fresh := strings.Replace(sample, "2648 ns/op", "4000 ns/op", 1)
	var out strings.Builder
	err := run(strings.NewReader(fresh), &out, "", "", "", "", "", "", base, 0.20)
	if err == nil {
		t.Fatal("51% regression passed the 20% gate")
	}
	for _, want := range []string{"BenchmarkDecide/no-tracer-nocost", "4000", "2648"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error missing %q: %v", want, err)
		}
	}
}

func TestCheckSkipsBenchmarksNewInThisRun(t *testing.T) {
	base := writeBaseline(t, sample)
	fresh := sample + "BenchmarkDecideBatch/deferred-n64-8\t10000\t999999 ns/op\t0 B/op\t0 allocs/op\n"
	var out strings.Builder
	if err := run(strings.NewReader(fresh), &out, "", "", "", "", "", "", base, 0.20); err != nil {
		t.Fatalf("benchmark absent from the baseline failed the gate: %v", err)
	}
}

func TestCheckListsBaselineEntriesNotRerun(t *testing.T) {
	base := writeBaseline(t, sample)
	// The fresh run lost one tracked benchmark (deleted or renamed): the
	// gate still passes on the rest, and says which entry it did not see.
	fresh := strings.Replace(sample, "BenchmarkDecide/no-tracer-8 ", "BenchmarkDecide/renamed-8 ", 1)
	var out strings.Builder
	if err := run(strings.NewReader(fresh), &out, "", "", "", "", "", "", base, 0.20); err != nil {
		t.Fatalf("gate failed on a benchmark the run did not produce: %v", err)
	}
	if !strings.Contains(out.String(), "not re-run: BenchmarkDecide/no-tracer\n") {
		t.Fatalf("missing or wrong not-re-run line:\n%s", out.String())
	}
	out.Reset()
	if err := run(strings.NewReader(sample), &out, "", "", "", "", "", "", base, 0.20); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "not re-run") {
		t.Fatalf("complete run reported entries as not re-run:\n%s", out.String())
	}
}

func TestCheckRejectsDisjointBaseline(t *testing.T) {
	other := `BenchmarkSomethingElse-8	100	50 ns/op
`
	base := writeBaseline(t, other)
	var out strings.Builder
	if err := run(strings.NewReader(sample), &out, "", "", "", "", "", "", base, 0.20); err == nil {
		t.Fatal("gate passed with zero benchmarks compared")
	}
}

func TestCheckRejectsMissingBaselineFile(t *testing.T) {
	var out strings.Builder
	missing := filepath.Join(t.TempDir(), "nope.json")
	if err := run(strings.NewReader(sample), &out, "", "", "", "", "", "", missing, 0.20); err == nil {
		t.Fatal("gate passed without a baseline file")
	}
	if _, err := os.Stat(missing); err == nil {
		t.Fatal("check mode created the baseline file")
	}
}
