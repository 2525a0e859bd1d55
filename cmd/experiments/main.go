// Command experiments regenerates and verifies the paper's evaluation:
// Tables 2–3, Figures 1–8, the ablation studies and the scenario matrix.
// Every entry of the internal/experiments registry writes one results/
// file, <name>.csv, at the configuration that file was made with.
//
// Usage:
//
//	experiments -run all          # rewrite every results/ file (≈ 2 min)
//	experiments -run fig4         # rewrite results/fig4.csv only
//	experiments -run all -check   # re-run everything, compare, write nothing
//
// -check fails on a missing file and on any simulated cell that differs
// (the wall-clock *exec_ms columns are exempt). Under -run all it also
// fails, before running anything, on a file in -out that no entry writes,
// other than README.md. Ad-hoc single runs belong to cmd/meghsim.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"megh/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, log io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(log)
	name := fs.String("run", "", "the experiment to run: a registry name, or all")
	out := fs.String("out", "results", "directory the files are written to, or checked against")
	check := fs.Bool("check", false, "re-run and compare with the files in -out instead of writing them")
	if err := fs.Parse(args); err != nil {
		return err
	}

	all := experiments.Experiments()
	var exps []experiments.Experiment
	names := make([]string, len(all))
	known := map[string]bool{"README.md": true}
	for i, e := range all {
		if *name == "all" || e.Name == *name {
			exps = append(exps, e)
		}
		names[i] = e.Name
		known[e.Name+".csv"] = true
	}
	if len(exps) == 0 {
		return fmt.Errorf("unknown experiment %q (want all or one of: %s)", *name, strings.Join(names, " "))
	}

	if *check && *name == "all" {
		files, err := os.ReadDir(*out)
		if err != nil {
			return err
		}
		var strays []string
		for _, f := range files {
			if !known[f.Name()] {
				strays = append(strays, f.Name())
			}
		}
		if len(strays) > 0 {
			return fmt.Errorf("%s holds files no experiment writes: %s", *out, strings.Join(strays, " "))
		}
	}

	var errs []error
	for _, e := range exps {
		start := time.Now()
		var err error
		if *check {
			err = e.Verify(*out)
		} else {
			var buf bytes.Buffer
			if err = e.Run(&buf); err == nil {
				err = os.WriteFile(filepath.Join(*out, e.Name+".csv"), buf.Bytes(), 0o644)
			}
		}
		status := "ok"
		if err != nil {
			status, errs = "FAIL", append(errs, err)
		}
		fmt.Fprintf(log, "%-18s %6.1fs  %s\n", e.Name, time.Since(start).Seconds(), status)
	}
	return errors.Join(errs...)
}
