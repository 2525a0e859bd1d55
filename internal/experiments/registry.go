package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"megh/internal/sim"
	"megh/internal/workload"
)

// Experiment is one committed results/ file: Run writes <Name>.csv at
// exactly the configuration the file was made with.
type Experiment struct {
	Name string
	Run  func(io.Writer) error
}

// Experiments is the registry behind results/, in EXPERIMENTS.md order.
// Every entry runs at seed 1.
func Experiments() []Experiment {
	pl, g := PaperPlanetLab(1), PaperGoogle(1)
	grid := []int{100, 200, 400, 800}
	// Figure 8 runs below full scale so 10 repetitions per value stay cheap.
	sens := Setup{Dataset: PlanetLab, Hosts: 100, VMs: 132, Steps: workload.StepsPerDay, Seed: 1}
	var temps, eps []float64
	for v := 0.5; v <= 10.001; v += 0.5 {
		temps = append(temps, v)
	}
	for e := -3.0; e <= 0.001; e += 0.1 { // 30 log-spaced ε in [10⁻³, 10⁰]
		eps = append(eps, math.Pow(10, e))
	}
	// The ablations run on 200 hosts, 263 VMs and two days; the failure
	// study takes 5 % of the hosts down for the middle third.
	abl := Setup{Dataset: PlanetLab, Hosts: 200, VMs: 263, Steps: 576, Seed: 1}
	caps, rates := []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.25}, []float64{0, 0.05, 0.1, 0.25, 0.5, 1}
	var failures []sim.Failure
	for h := 0; h < abl.Hosts; h += 20 {
		failures = append(failures, sim.Failure{Host: h, From: abl.Steps / 3, Until: 2 * abl.Steps / 3})
	}
	topo := Setup{Dataset: Google, Hosts: 200, VMs: 800, Steps: 576, Seed: 1}
	learners := Setup{Dataset: PlanetLab, Hosts: 100, VMs: 150, Steps: workload.StepsPerDay, Seed: 1}
	table := func(run func() ([]TableRow, error)) func(io.Writer) error { return emit(run, WriteTableCSV) }
	return []Experiment{
		{"table2", table(func() ([]TableRow, error) { return RunTable(pl, nil) })},
		{"table3", table(func() ([]TableRow, error) { return RunTable(g, nil) })},
		{"fig1a", emit(func() (Figure1a, error) { return RunFigure1a(1052, workload.SevenDays, 1) }, writeFigure1a)},
		{"fig1b", emit(func() (Figure1b, error) { return RunFigure1b(2000, workload.SevenDays, 1, 25) }, writeFigure1b)},
		{"fig2", series(pl, "Megh", "THR-MMT")},
		{"fig3", series(g, "Megh", "THR-MMT")},
		{"fig4", series(PaperMadVMSubset(PlanetLab, 1), "Megh", "MadVM")},
		{"fig5", series(PaperMadVMSubset(Google, 1), "Megh", "MadVM")},
		{"fig6a", scalability("THR-MMT", grid)},
		{"fig6b", scalability("Megh", grid)},
		{"fig7", emit(func() (map[int][]int, error) { return QTableGrowth(PlanetLab, grid, workload.SevenDays, 1) },
			func(w io.Writer, growth map[int][]int) error { return WriteQTableGrowthCSV(w, growth, grid) })},
		{"fig8a", emit(func() ([]SensitivityPoint, error) { return RunSensitivityTemp(sens, temps, 0.001, 10) }, WriteSensitivityCSV)},
		{"fig8b", emit(func() ([]SensitivityPoint, error) { return RunSensitivityEpsilon(sens, eps, 1, 10) }, WriteSensitivityCSV)},
		{"sweep_cap", table(func() ([]TableRow, error) { return MigrationCapSweep(abl, caps) })},
		{"sweep_exploration", table(func() ([]TableRow, error) { return ExplorationSweep(abl, rates) })},
		{"sweep_accounting", table(func() ([]TableRow, error) { return AccountingComparison(abl, nil) })},
		{"sweep_selection", table(func() ([]TableRow, error) { return SelectionComparison(abl) })},
		{"sweep_topology", table(func() ([]TableRow, error) { return TopologyComparison(topo, nil, 0.5) })},
		{"sweep_failure", table(func() ([]TableRow, error) { return FailureRecovery(abl, nil, failures) })},
		{"sweep_learners", table(func() ([]TableRow, error) { return LearnerComparison(learners) })},
		{"scenarios", emit(func() ([]ScenarioRow, error) { return RunScenarioMatrix(DefaultScenarioSetup(1), nil, nil) }, WriteScenarioCSV)},
	}
}

// emit is the shape of every entry: run the experiment, then write its CSV.
func emit[T any](run func() (T, error), write func(io.Writer, T) error) func(io.Writer) error {
	return func(w io.Writer) error {
		v, err := run()
		if err != nil {
			return err
		}
		return write(w, v)
	}
}

func series(setup Setup, policies ...string) func(io.Writer) error {
	return emit(func() (SeriesSet, error) { return RunSeries(setup, policies) },
		func(w io.Writer, set SeriesSet) error { return WriteSeriesCSV(w, set, policies) })
}

func scalability(policy string, sizes []int) func(io.Writer) error {
	return emit(func() ([]ScalabilityPoint, error) {
		return RunScalability(PlanetLab, policy, sizes, 3, workload.StepsPerDay, 1)
	}, WriteScalabilityCSV)
}

func writeFigure1a(w io.Writer, f Figure1a) error {
	b := []byte("step,mean_pct,max_pct,min_pct,std_pct\n")
	for t := range f.Mean {
		b = fmt.Appendf(b, "%d,%.3f,%.3f,%.3f,%.3f\n", t, f.Mean[t], f.Max[t], f.Min[t], f.Std[t])
	}
	_, err := w.Write(b)
	return err
}

func writeFigure1b(w io.Writer, f Figure1b) error {
	b := []byte("bin_lo_sec,bin_hi_sec,tasks\n")
	for i, c := range f.Counts {
		b = fmt.Appendf(b, "%.1f,%.1f,%d\n", f.BinEdges[i], f.BinEdges[i+1], c)
	}
	_, err := w.Write(b)
	return err
}

// Verify runs the entry and Checks its output against <dir>/<Name>.csv.
func (e Experiment) Verify(dir string) error {
	file := e.Name + ".csv"
	want, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := e.Run(&got); err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	if err := Check(want, got.Bytes()); err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	return nil
}

// Check compares a committed CSV (want) with a fresh run's (got). Headers,
// row counts and every cell must be equal, except in the wall-clock columns
// (headers ending in exec_ms); everything else is simulated and
// deterministic, so the comparison is exact.
func Check(want, got []byte) error {
	w := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	g := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if w[0] != g[0] {
		return fmt.Errorf("header: want %q, got %q", w[0], g[0])
	}
	if len(w) != len(g) {
		return fmt.Errorf("want %d rows, got %d", len(w)-1, len(g)-1)
	}
	header := strings.Split(w[0], ",")
	diffs, first := 0, ""
	for r := 1; r < len(w); r++ {
		wc, gc := strings.Split(w[r], ","), strings.Split(g[r], ",")
		if len(wc) != len(header) || len(gc) != len(header) {
			return fmt.Errorf("row %d: want %d cells, got %d", r, len(wc), len(gc))
		}
		for c, col := range header {
			if wc[c] == gc[c] || strings.HasSuffix(col, "exec_ms") {
				continue
			}
			if diffs++; diffs == 1 {
				first = fmt.Sprintf("row %d, column %s: want %s, got %s", r, col, wc[c], gc[c])
			}
		}
	}
	if diffs > 0 {
		return fmt.Errorf("%s (%d cells differ)", first, diffs)
	}
	return nil
}
