// Command meghsim runs one policy on one simulated data center and prints
// the run's summary (and optionally the per-step series as CSV).
//
// Usage:
//
//	meghsim -dataset planetlab -policy Megh -hosts 100 -vms 132 \
//	        -steps 288 -seed 1 [-csv] [-trace run.jsonl] [-metrics] [-check]
//
// Observability: -trace FILE writes one structured JSONL event per step
// (and per Megh decision) for offline analysis with meghtrace; two runs
// with the same seed produce byte-identical trace files unless
// -trace-timings adds wall-clock spans. -metrics dumps an end-of-run
// Prometheus snapshot to stdout and -metrics-out FILE writes it to a file.
// -check validates the conservation invariants of internal/invariant after
// every step and aborts the run on the first violation.
//
// Scenarios: -scenario NAME swaps the dataset generators for a registered
// scenario regime (VM churn, phase scripts, spot reclamation, RAM
// pressure; see -scenario-list). -scenario all runs every registered
// scenario, and -policy all crosses them with the default matrix policy
// set. The scenario path honors -check; the per-run observability flags
// (-trace, -metrics, -fail, -fattree, -csv) apply to dataset runs only.
//
// Registered policies: THR-MMT, IQR-MMT, MAD-MMT, LR-MMT, LRR-MMT, Megh,
// MadVM, Q-learning.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"megh/internal/experiments"
	"megh/internal/invariant"
	"megh/internal/obs"
	"megh/internal/scenario"
	"megh/internal/sim"
	"megh/internal/topology"
	"megh/internal/trace"
)

// parseFailures parses "host:from:until[,host:from:until…]".
func parseFailures(spec string) ([]sim.Failure, error) {
	if spec == "" {
		return nil, nil
	}
	var out []sim.Failure
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad -fail entry %q (want host:from:until)", part)
		}
		vals := make([]int, 3)
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad -fail entry %q: %w", part, err)
			}
			vals[i] = v
		}
		out = append(out, sim.Failure{Host: vals[0], From: vals[1], Until: vals[2]})
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "meghsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset    = flag.String("dataset", "planetlab", "workload: planetlab or google")
		policy     = flag.String("policy", "Megh", "policy name (see -list)")
		hosts      = flag.Int("hosts", 100, "number of physical machines (M)")
		vms        = flag.Int("vms", 132, "number of virtual machines (N)")
		steps      = flag.Int("steps", 288, "horizon in 5-minute steps (288 = 1 day)")
		seed       = flag.Int64("seed", 1, "seed for traces, specs, placement and policy exploration")
		csv        = flag.Bool("csv", false, "emit the per-step series as CSV instead of a summary")
		list       = flag.Bool("list", false, "list registered policies and exit")
		fatTree    = flag.Bool("fattree", false, "scale migration times with a fat-tree topology")
		failAt     = flag.String("fail", "", "inject outages, e.g. \"0:96:192,7:100:150\" (host:from:until)")
		metrics    = flag.Bool("metrics", false, "dump an end-of-run Prometheus metrics snapshot to stdout")
		metricsOut = flag.String("metrics-out", "",
			"write the end-of-run Prometheus metrics snapshot to this file")
		traceOut = flag.String("trace", "",
			"write one structured JSONL trace event per step to this file (analyse with meghtrace)")
		traceTimings = flag.Bool("trace-timings", false,
			"record wall-clock span timings in trace events (makes traces nondeterministic)")
		check = flag.Bool("check", false,
			"validate conservation invariants every step; the run aborts on the first violation")
		scenarioName = flag.String("scenario", "",
			"run a registered scenario regime instead of a dataset (\"all\" = every scenario)")
		scenarioList = flag.Bool("scenario-list", false, "list registered scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range experiments.PolicyNames() {
			fmt.Println(name)
		}
		return nil
	}
	if *scenarioList {
		for _, name := range scenario.Names() {
			cfg, _ := scenario.Get(name)
			fmt.Printf("%-14s %s\n", name, cfg.Description)
		}
		return nil
	}
	if *scenarioName != "" {
		return runScenario(*scenarioName, *policy, *hosts, *vms, *steps, *seed, *check,
			*csv || *fatTree || *failAt != "" || *metrics || *metricsOut != "" || *traceOut != "")
	}
	setup := experiments.Setup{
		Dataset: experiments.Dataset(*dataset),
		Hosts:   *hosts, VMs: *vms, Steps: *steps, Seed: *seed,
	}
	failures, err := parseFailures(*failAt)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if *metrics || *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		// Only the file: nothing here reads a tail ring.
		tracer, err = trace.New(trace.Options{Path: *traceOut, RingSize: -1, Timings: *traceTimings})
		if err != nil {
			return fmt.Errorf("opening trace sink: %w", err)
		}
		defer func() {
			if tracer != nil {
				_ = tracer.Close()
			}
		}()
	}
	var mutate func(*sim.Config)
	if *fatTree || len(failures) > 0 || reg != nil || tracer != nil || *check {
		var model sim.MigrationTimeModel
		if *fatTree {
			m, err := topology.NewMigrationModel(*hosts, 0.5)
			if err != nil {
				return err
			}
			model = m
		}
		mutate = func(c *sim.Config) {
			if model != nil {
				c.Migration = model
			}
			c.Failures = failures
			c.Metrics = reg
			c.Tracer = tracer
			if *check {
				c.Checker = invariant.NewSimChecker()
			}
		}
	}
	var res *sim.Result
	if mutate == nil {
		// The default path also gives Q-learning its offline training.
		res, err = experiments.RunPolicy(setup, *policy)
	} else {
		var p sim.Policy
		p, err = experiments.NewPolicy(*policy, setup.VMs, setup.Hosts, setup.PolicySeed())
		if err != nil {
			return err
		}
		if reg != nil {
			if m, ok := p.(interface{ Instrument(*obs.Registry) }); ok {
				m.Instrument(reg)
			}
		}
		if tracer != nil {
			if tr, ok := p.(interface{ Trace(*trace.Tracer) }); ok {
				tr.Trace(tracer)
			}
		}
		res, err = experiments.RunCustom(setup, p, mutate)
	}
	if err != nil {
		return err
	}
	if tracer != nil {
		// Close (flushing) before reporting, so a crash in reporting still
		// leaves a complete trace file on disk.
		cerr := tracer.Close()
		tracer = nil
		if cerr != nil {
			return fmt.Errorf("closing trace sink: %w", cerr)
		}
	}
	if *metricsOut != "" {
		if err := dumpMetricsFile(reg, *metricsOut); err != nil {
			return err
		}
	}
	if *metrics {
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if *csv {
		return experiments.WriteSeriesCSV(os.Stdout,
			experiments.SeriesSet{res.Policy: res}, []string{res.Policy})
	}
	row := experiments.RowFromResult(res)
	return experiments.WriteTable(os.Stdout,
		fmt.Sprintf("%s on %s (%d hosts, %d VMs, %d steps, seed %d)",
			*policy, *dataset, *hosts, *vms, *steps, *seed),
		[]experiments.TableRow{row})
}

// runScenario handles the -scenario path: one registered scenario (or all
// of them) crossed with one policy (or, with -policy all, the default
// matrix set), printed as a scenario-matrix table.
func runScenario(scenarioName, policy string, hosts, vms, steps int, seed int64,
	check, unsupportedFlags bool) error {
	if unsupportedFlags {
		return fmt.Errorf("-scenario does not combine with -csv/-fattree/-fail/-metrics/-trace; " +
			"cmd/experiments -run scenarios writes the default matrix as CSV")
	}
	if check {
		experiments.SetCheckerFactory(func() sim.Checker { return invariant.NewSimChecker() })
		defer experiments.SetCheckerFactory(nil)
	}
	setup := experiments.ScenarioSetup{Hosts: hosts, VMs: vms, Steps: steps, Seed: seed}
	var scenarios, policies []string
	if scenarioName != "all" {
		scenarios = []string{scenarioName}
	}
	if policy != "all" {
		policies = []string{policy}
	}
	rows, err := experiments.RunScenarioMatrix(setup, scenarios, policies)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Scenario matrix (%d hosts, %d VMs, %d steps, seed %d%s)",
		hosts, vms, steps, seed, map[bool]string{true: ", checked", false: ""}[check])
	return experiments.WriteScenarioTable(os.Stdout, title, rows)
}

// dumpMetricsFile writes the registry snapshot to a file.
func dumpMetricsFile(reg *obs.Registry, dest string) error {
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	werr := reg.WritePrometheus(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
