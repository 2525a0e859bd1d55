// Command benchjson turns `go test -bench -benchmem` output into a tracked
// machine-readable baseline.
//
// It reads benchmark text on stdin, parses every result line into
// {name, iterations, ns/op, B/op, allocs/op, custom metrics}, and writes a
// single JSON document. The repository keeps the result as BENCH_megh.json
// (regenerate with `make bench-json`): committing it alongside performance
// work gives every revision an auditable before/after record, and reviews
// can diff the numbers like any other file.
//
// With -assert-zero-alloc, benchjson additionally fails (exit 1) unless the
// named benchmarks report exactly 0 allocs/op — `make check` uses this as a
// regression gate on the allocation-free decide path. -assert-max-allocs
// generalises the gate to bounded-allocation paths: repeated NAME=N pairs
// each fail the run when the named benchmark exceeds N allocs/op (`make
// check` bounds the server's service-layer decide path this way), and
// -assert-max-bytes does the same for B/op (the decide handler's and the
// checkpoint writer's bounds).
//
// With -check FILE, benchjson compares the freshly parsed results against
// the committed baseline document instead of writing one: any benchmark
// present in both whose ns/op regressed by more than -check-tolerance
// (default 0.20, i.e. 20%) fails the run, listing every offender —
// `make bench-check` uses this as the performance regression gate against
// BENCH_megh.json. Benchmarks new in this run (absent from the baseline)
// are skipped, so adding a benchmark never requires regenerating the
// baseline in the same change; baseline entries this run did not produce
// are printed as "not re-run: …", so a deleted or renamed tracked benchmark
// shows in the gate's output.
//
// Usage:
//
//	go test -run=- -bench=. -benchmem ./... | benchjson -commit $(git rev-parse --short HEAD) -o BENCH_megh.json
//	go test -run=- -bench=Decide/no-tracer-nocost -benchmem ./internal/core | benchjson -assert-zero-alloc BenchmarkDecide/no-tracer-nocost
//	go test -run=- -bench=. -benchmem ./... | benchjson -check BENCH_megh.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  float64            `json:"b_op"`
	AllocsPerOp float64            `json:"allocs_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// File is the BENCH_megh.json document.
type File struct {
	Schema     int      `json:"schema"`
	Commit     string   `json:"commit,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches a go test benchmark result: name, iteration count, then
// tab-separated "<value> <unit>" metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// cpuSuffix strips the trailing GOMAXPROCS qualifier go test appends to
// benchmark names (e.g. BenchmarkDecide/no-tracer-8 → BenchmarkDecide/no-tracer).
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse consumes benchmark text and returns the parsed results plus the
// "cpu:" header line, if present. Repetitions of one benchmark (-count=N)
// collapse to the fastest rep by ns/op: the minimum is the noise-robust
// estimate a regression gate wants — scheduler interference and frequency
// scaling only ever make a run slower, never faster.
func parse(r io.Reader) ([]Result, string, error) {
	var results []Result
	var cpu string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "cpu:") {
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, "", fmt.Errorf("benchjson: bad iteration count in %q: %w", line, err)
		}
		res := Result{Name: cpuSuffix.ReplaceAllString(m[1], ""), Iterations: iters}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, "", fmt.Errorf("benchjson: odd metric fields in %q", line)
		}
		for i := 0; i < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, "", fmt.Errorf("benchjson: bad metric value in %q: %w", line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				res.BytesPerOp = val
			case "allocs/op":
				res.AllocsPerOp = val
			case "MB/s":
				fallthrough
			default:
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[unit] = val
			}
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	best := make(map[string]int, len(results))
	deduped := results[:0]
	for _, r := range results {
		if at, ok := best[r.Name]; ok {
			if r.NsPerOp < deduped[at].NsPerOp {
				deduped[at] = r
			}
			continue
		}
		best[r.Name] = len(deduped)
		deduped = append(deduped, r)
	}
	results = deduped
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results, cpu, nil
}

// assertZeroAlloc fails unless every named benchmark is present and reports
// exactly zero allocations per operation.
func assertZeroAlloc(results []Result, names []string) error {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	for _, n := range names {
		r, ok := byName[n]
		if !ok {
			return fmt.Errorf("benchjson: benchmark %q not found in input (have %d results)", n, len(results))
		}
		if r.AllocsPerOp != 0 {
			return fmt.Errorf("benchjson: %s allocates %.0f allocs/op (%.0f B/op), want 0 — the allocation-free decide path regressed",
				n, r.AllocsPerOp, r.BytesPerOp)
		}
	}
	return nil
}

// assertMaxAllocs fails unless every "NAME=N" entry names a present
// benchmark reporting at most N allocs/op.
func assertMaxAllocs(results []Result, specs []string) error {
	return assertMax(results, specs, "-assert-max-allocs", "allocs/op", func(r Result) float64 { return r.AllocsPerOp })
}

// assertMaxBytes is assertMaxAllocs for B/op.
func assertMaxBytes(results []Result, specs []string) error {
	return assertMax(results, specs, "-assert-max-bytes", "B/op", func(r Result) float64 { return r.BytesPerOp })
}

// assertMax fails unless every "NAME=N" entry of the named flag names a
// present benchmark whose metric, in unit, is at most N.
func assertMax(results []Result, specs []string, flagName, unit string, metric func(Result) float64) error {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	for _, spec := range specs {
		name, limitStr, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("benchjson: %s entry %q is not NAME=N", flagName, spec)
		}
		limit, err := strconv.ParseFloat(limitStr, 64)
		if err != nil || limit < 0 {
			return fmt.Errorf("benchjson: %s entry %q has a bad limit", flagName, spec)
		}
		r, ok := byName[name]
		if !ok {
			return fmt.Errorf("benchjson: benchmark %q not found in input (have %d results)", name, len(results))
		}
		if got := metric(r); got > limit {
			return fmt.Errorf("benchjson: %s reports %.0f %s (%.0f allocs/op, %.0f B/op), limit %.0f — the bounded-allocation path regressed",
				name, got, unit, r.AllocsPerOp, r.BytesPerOp, limit)
		}
	}
	return nil
}

// checkRegressions compares fresh results against the committed baseline:
// each benchmark present in both must keep ns/op within (1+tolerance)× its
// baseline value. Every offender is reported, not just the first, so one
// run shows the full damage. Benchmarks missing from the baseline pass
// (they are new); benchmarks missing from the fresh run cannot fail the gate
// (the caller chose what to re-run) but are listed on out, so a tracked
// benchmark that was deleted or renamed does not drop out of it unseen.
func checkRegressions(out io.Writer, results []Result, baselinePath string, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("benchjson: reading baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchjson: parsing baseline %s: %w", baselinePath, err)
	}
	byName := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	var regressions []string
	compared := 0
	fresh := make(map[string]bool, len(results))
	for _, r := range results {
		fresh[r.Name] = true
		b, ok := byName[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		compared++
		if r.NsPerOp > b.NsPerOp*(1+tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("  %s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, limit +%.0f%%)",
					r.Name, r.NsPerOp, b.NsPerOp, (r.NsPerOp/b.NsPerOp-1)*100, tolerance*100))
		}
	}
	if compared == 0 {
		return fmt.Errorf("benchjson: no benchmark in the input matches the baseline %s (%d baseline entries)",
			baselinePath, len(base.Benchmarks))
	}
	var notRerun []string
	for _, b := range base.Benchmarks {
		if !fresh[b.Name] {
			notRerun = append(notRerun, b.Name)
		}
	}
	if len(notRerun) > 0 {
		fmt.Fprintf(out, "benchjson: not re-run: %s\n", strings.Join(notRerun, ", "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchjson: %d of %d benchmarks regressed beyond the %.0f%% tolerance vs %s:\n%s",
			len(regressions), compared, tolerance*100, baselinePath, strings.Join(regressions, "\n"))
	}
	return nil
}

func run(in io.Reader, out io.Writer, commit, outPath, note, zeroAlloc, maxAllocs, maxBytes, checkPath string, checkTol float64) error {
	results, cpu, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("benchjson: no benchmark results on stdin")
	}
	gated := false
	if zeroAlloc != "" {
		var names []string
		for _, n := range strings.Split(zeroAlloc, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if err := assertZeroAlloc(results, names); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchjson: zero-alloc gate passed for %s\n", zeroAlloc)
		gated = true
	}
	for _, gate := range []struct {
		flag, value string
		assert      func([]Result, []string) error
	}{
		{"max-allocs", maxAllocs, assertMaxAllocs},
		{"max-bytes", maxBytes, assertMaxBytes},
	} {
		if gate.value == "" {
			continue
		}
		var specs []string
		for _, n := range strings.Split(gate.value, ",") {
			if n = strings.TrimSpace(n); n != "" {
				specs = append(specs, n)
			}
		}
		if err := gate.assert(results, specs); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchjson: %s gate passed for %s\n", gate.flag, gate.value)
		gated = true
	}
	if gated && outPath == "" && checkPath == "" {
		return nil
	}
	if checkPath != "" {
		if checkTol <= 0 {
			return fmt.Errorf("benchjson: -check-tolerance %g must be positive", checkTol)
		}
		if err := checkRegressions(out, results, checkPath, checkTol); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchjson: regression gate passed against %s (tolerance %.0f%%)\n",
			checkPath, checkTol*100)
		if outPath == "" {
			return nil
		}
	}
	doc := File{
		Schema:     1,
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpu,
		Note:       note,
		Benchmarks: results,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath == "" || outPath == "-" {
		_, err = out.Write(enc)
		return err
	}
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchjson: wrote %d benchmarks to %s\n", len(results), outPath)
	return nil
}

func main() {
	commit := flag.String("commit", "", "commit hash to record in the output")
	outPath := flag.String("o", "", "output file (default or \"-\": stdout)")
	note := flag.String("note", "", "free-form note recorded in the output")
	zeroAlloc := flag.String("assert-zero-alloc", "",
		"comma-separated benchmark names that must report 0 allocs/op; exit 1 otherwise")
	maxAllocs := flag.String("assert-max-allocs", "",
		"comma-separated NAME=N pairs; exit 1 when NAME reports more than N allocs/op")
	maxBytes := flag.String("assert-max-bytes", "",
		"comma-separated NAME=N pairs; exit 1 when NAME reports more than N B/op")
	checkPath := flag.String("check", "",
		"baseline BENCH JSON file to compare against; exit 1 when any shared benchmark's ns/op regresses beyond -check-tolerance")
	checkTol := flag.Float64("check-tolerance", 0.20,
		"allowed fractional ns/op regression for -check (0.20 = 20%)")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *commit, *outPath, *note, *zeroAlloc, *maxAllocs, *maxBytes, *checkPath, *checkTol); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
