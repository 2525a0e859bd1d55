// Command bench is the repository benchmark: client-observed decide
// latency over five workloads, with a per-layer budget trace.
//
//	go run -C bench . [-workload name] [-seed n] [-seconds n] [-trace 0|1]
//	                  [-spans file] [-out file]
//	go run -C bench . -compare a.json b.json
//
// See README.md beside this file for the workloads, the metrics and the
// measured budget tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
)

// options are the command line's.
type options struct {
	workload string
	seed     int64
	seconds  int
	// trace is -1 when the flag was not given.
	trace int
	spans string
	out   string
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Results []*result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, in order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every world and learner")
	fs.IntVar(&o.seconds, "seconds", 10, "work budget per run: converted to a fixed step count per workload")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "write the traced run's spans here (JSON lines); without -trace, runs untraced and then traced")
	fs.StringVar(&o.out, "out", "", "write the run's metrics as JSON")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.seconds < 1 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []*workload{w}
	}

	// Everything the run writes lives under one scratch directory in the
	// working directory, removed on exit.
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratchBase, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		os.RemoveAll(tmp)
		os.Remove(scratchBase) // succeeds only when no other run is using it
	}
	defer cleanup()
	// A driver that gives up on a run interrupts it; leave nothing behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			cleanup()
			os.Exit(1)
		}
	}()
	defer func() { // ends the goroutine once no signal can be sent any more
		signal.Stop(sig)
		close(sig)
	}()

	e := &env{seed: o.seed, tmp: tmp}
	file := outFile{Seed: o.seed, Seconds: o.seconds}
	var spans []span
	ok := true
	for _, w := range selected {
		sz := w.size(o.seconds)
		results, err := runPasses(e, w, sz, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, r := range results {
			printResult(stdout, r)
			ok = ok && r.Failed == 0
			spans = append(spans, r.spans...)
			file.Results = append(file.Results, r)
		}
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: failed checks, see above")
		return 1
	}
	return 0
}

// scratchBase holds the runs' scratch directories, relative to the
// working directory (the benchmark's own directory under `go run -C`).
const scratchBase = ".bench_tmp"

// runPasses runs one workload: untraced for the end-to-end metrics,
// traced for the per-layer metrics, or — with -spans and no -trace —
// both, which also gives the tracer's own overhead and a budget table set
// beside the untraced median.
func runPasses(e *env, w *workload, sz sizing, o options) ([]*result, error) {
	both := o.trace < 0 && o.spans != ""
	var results []*result
	var untraced *result
	if o.trace <= 0 {
		r, err := runOne(e, w, sz, false)
		if err != nil {
			return nil, err
		}
		untraced = r
		results = append(results, r)
	}
	if o.trace == 1 || both {
		r, err := runOne(e, w, sz, true)
		if err != nil {
			return nil, err
		}
		ref, _ := r.metric("decide_p50_ms")
		if untraced != nil {
			ref, _ = untraced.metric("decide_p50_ms")
			dpsU, _ := untraced.metric("decisions_per_s")
			dpsT, _ := r.metric("decisions_per_s")
			r.PerLayer = append(r.PerLayer, metric{"trace.overhead_ratio", dpsU / dpsT, "ratio"})
			if r.Digest != untraced.Digest {
				r.Failed++
				r.Errors = append(r.Errors, "traced and untraced runs decided differently")
			}
		}
		if len(r.spans) > 0 { // a workload with no wire has no budget to lay out
			r.Budget = budget(r, sz.batchItems, ref)
		}
		results = append(results, r)
	}
	return results, nil
}

// runOne runs one pass of one workload on a collected heap.
func runOne(e *env, w *workload, sz sizing, traced bool) (*result, error) {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.heapBase = ms.HeapAlloc
	return w.run(e, w, sz, traced)
}

// printResult prints every metric by name with its unit, the digest, the
// budget table, and — last — the one-line JSON object the driver reads.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d steps  %s  %.1f s measured ==\n", r.Workload, r.Seed, r.Steps, mode, r.wallSeconds)
	fmt.Fprintf(w, "   samples: decide %d, feedback %d, checkpoint %d, setup %d; decisions %d\n",
		r.Counts["decide"], r.Counts["feedback"], r.Counts["checkpoint"], r.Counts["setup"], r.Counts["decisions"])
	if r.Traced {
		fmt.Fprintln(w, "   (traced: end-to-end numbers below include the tracer's cost; gate on an untraced run)")
	}
	for _, m := range r.EndToEnd {
		fmt.Fprintf(w, "   %-26s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.Extra {
		fmt.Fprintf(w, "   %-26s %14.4f %s  (not in BENCHMARK.json)\n", m.Name, m.Value, m.Unit)
	}
	failedRatio := 0.0
	if r.Attempted > 0 {
		failedRatio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "   %-26s %14.4f ratio  (%d of %d operations)\n", "failed_ratio", failedRatio, r.Failed, r.Attempted)
	for _, m := range r.PerLayer {
		fmt.Fprintf(w, "   %-26s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "   budget (medians, us):\n")
		for _, row := range r.Budget {
			fmt.Fprintf(w, "     %-28s %12.1f\n", row.Name, row.US)
		}
	}
	fmt.Fprintf(w, "   digest %s\n", r.Digest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	reported := r.EndToEnd
	if r.Traced {
		reported = r.PerLayer
	}
	for _, m := range reported {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	raw, _ := json.Marshal(line) // plain numbers and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", raw)
}
