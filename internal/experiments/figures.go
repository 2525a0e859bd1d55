package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"megh/internal/core"
	"megh/internal/sim"
	"megh/internal/stats"
	"megh/internal/workload"
)

// Figure1a holds the PlanetLab workload-dynamics series of Figure 1(a):
// per-step mean, max, min and standard deviation of utilization across VMs.
type Figure1a struct {
	Mean, Max, Min, Std []float64
}

// RunFigure1a generates the PlanetLab-like trace population and computes
// the per-step cross-VM statistics.
func RunFigure1a(numVMs, steps int, seed int64) (Figure1a, error) {
	cfg := workload.DefaultPlanetLabConfig(seed)
	cfg.Steps = steps
	traces, err := workload.GeneratePlanetLab(cfg, numVMs)
	if err != nil {
		return Figure1a{}, err
	}
	out := Figure1a{
		Mean: make([]float64, steps),
		Max:  make([]float64, steps),
		Min:  make([]float64, steps),
		Std:  make([]float64, steps),
	}
	col := make([]float64, numVMs)
	for t := 0; t < steps; t++ {
		for v, tr := range traces {
			col[v] = tr.At(t) * 100 // percent, as plotted
		}
		out.Mean[t] = stats.Mean(col)
		out.Max[t] = stats.Max(col)
		out.Min[t] = stats.Min(col)
		out.Std[t] = stats.StdDev(col)
	}
	return out, nil
}

// Figure1b holds the Google task-duration histogram of Figure 1(b):
// log10-spaced duration bins and their task counts.
type Figure1b struct {
	// BinEdges has len(Counts)+1 entries, in seconds.
	BinEdges []float64
	Counts   []int
}

// RunFigure1b generates the Google-like task stream and histograms its
// durations over 10¹–10⁶ s.
func RunFigure1b(numVMs, steps int, seed int64, bins int) (Figure1b, error) {
	cfg := workload.DefaultGoogleConfig(seed)
	cfg.Steps = steps
	_, tasks, err := workload.GenerateGoogle(cfg, numVMs)
	if err != nil {
		return Figure1b{}, err
	}
	durations := make([]float64, len(tasks))
	for i, task := range tasks {
		durations[i] = task.DurationSec
	}
	counts := stats.LogHistogram(durations, cfg.MinDurationSec, cfg.MaxDurationSec, bins)
	edges := make([]float64, bins+1)
	lo, hi := math.Log10(cfg.MinDurationSec), math.Log10(cfg.MaxDurationSec)
	for i := range edges {
		edges[i] = math.Pow(10, lo+(hi-lo)*float64(i)/float64(bins))
	}
	return Figure1b{BinEdges: edges, Counts: counts}, nil
}

// SeriesSet maps policy name → full run result; the per-step series of
// Figures 2–5 (cost, cumulative migrations, active hosts, execution time)
// are all views over it.
type SeriesSet map[string]*sim.Result

// RunSeries reproduces the Figure-2/3 time-series comparison (default
// policies: Megh vs THR-MMT) or Figure-4/5 (Megh vs MadVM) depending on
// the setup and policy list.
func RunSeries(setup Setup, policies []string) (SeriesSet, error) {
	if len(policies) == 0 {
		policies = []string{"Megh", "THR-MMT"}
	}
	out := make(SeriesSet, len(policies))
	for _, name := range policies {
		res, err := RunPolicy(setup, name)
		if err != nil {
			return nil, fmt.Errorf("experiments: series policy %s: %w", name, err)
		}
		out[name] = res
	}
	return out, nil
}

// WriteSeriesCSV emits one row per step with, per policy, the four panel
// series of Figures 2–5: per-step cost, cumulative migrations, active
// hosts and decide time (ms). An empty order means the sorted policy names.
func WriteSeriesCSV(w io.Writer, set SeriesSet, order []string) error {
	if len(order) == 0 {
		for name := range set {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	header := "step"
	for _, name := range order {
		header += fmt.Sprintf(",%s_cost,%s_cum_migrations,%s_active_hosts,%s_exec_ms",
			name, name, name, name)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	steps := 0
	for _, r := range set {
		if len(r.Steps) > steps {
			steps = len(r.Steps)
		}
	}
	cums := make(map[string][]int, len(order))
	for _, name := range order {
		if r, ok := set[name]; ok {
			cums[name] = r.CumulativeMigrations()
		}
	}
	for t := 0; t < steps; t++ {
		line := fmt.Sprintf("%d", t)
		for _, name := range order {
			r, ok := set[name]
			if !ok || t >= len(r.Steps) {
				line += ",,,,"
				continue
			}
			m := r.Steps[t]
			line += fmt.Sprintf(",%.6f,%d,%d,%.4f",
				m.TotalCost(), cums[name][t], m.ActiveHosts, m.DecideSeconds*1000)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// ScalabilityPoint is one cell of the Figure-6 grids.
type ScalabilityPoint struct {
	Hosts, VMs   int
	MeanDecideMs float64
}

// RunScalability reproduces Figure 6: per-step execution time over a grid
// of (hosts, VMs) sizes, averaged over `reps` randomized runs each, for
// one policy ("THR-MMT" for 6a, "Megh" for 6b).
func RunScalability(ds Dataset, policy string, sizes []int, reps, steps int, seed int64) ([]ScalabilityPoint, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiments: reps %d must be positive", reps)
	}
	var out []ScalabilityPoint
	for _, m := range sizes {
		for _, n := range sizes {
			var total float64
			for rep := 0; rep < reps; rep++ {
				setup := Setup{
					Dataset: ds, Hosts: m, VMs: n, Steps: steps,
					Seed: seed + int64(rep)*1009 + int64(m)*31 + int64(n),
				}
				p, err := NewPolicy(policy, setup.VMs, setup.Hosts, setup.PolicySeed())
				if err != nil {
					return nil, err
				}
				// Grid cells with many more VMs than hosts (the paper
				// sweeps m and n independently) need extra host RAM to
				// be placeable at all; scale it so RAM never blocks
				// the cell.
				res, err := RunCustom(setup, p, scaleHostRAM(1.3))
				if err != nil {
					return nil, fmt.Errorf("experiments: scalability %d×%d rep %d: %w", m, n, rep, err)
				}
				total += res.MeanDecideSeconds()
			}
			out = append(out, ScalabilityPoint{
				Hosts: m, VMs: n,
				MeanDecideMs: total / float64(reps) * 1000,
			})
		}
	}
	return out, nil
}

// scaleHostRAM returns a config mutator that grows every host's RAM until
// the fleet holds `factor` × the total VM RAM demand.
func scaleHostRAM(factor float64) func(*sim.Config) {
	return func(c *sim.Config) {
		var vmRAM, hostRAM float64
		for _, v := range c.VMs {
			vmRAM += v.RAMMB
		}
		for _, h := range c.Hosts {
			hostRAM += h.RAMMB
		}
		if hostRAM >= vmRAM*factor || hostRAM == 0 {
			return
		}
		scale := vmRAM * factor / hostRAM
		for i := range c.Hosts {
			c.Hosts[i].RAMMB *= scale
		}
	}
}

// WriteScalabilityCSV emits the Figure-6 grid.
func WriteScalabilityCSV(w io.Writer, pts []ScalabilityPoint) error {
	if _, err := fmt.Fprintln(w, "hosts,vms,mean_exec_ms"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%d,%d,%.4f\n", p.Hosts, p.VMs, p.MeanDecideMs); err != nil {
			return err
		}
	}
	return nil
}

// QTableGrowth reproduces Figure 7: for each size M (with N = M, as the
// paper assumes), Megh's per-step Q-table non-zero count.
func QTableGrowth(ds Dataset, sizes []int, steps int, seed int64) (map[int][]int, error) {
	out := make(map[int][]int, len(sizes))
	for _, m := range sizes {
		setup := Setup{Dataset: ds, Hosts: m, VMs: m, Steps: steps, Seed: seed + int64(m)}
		cfg, err := setup.Build()
		if err != nil {
			return nil, err
		}
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		megh, err := core.New(core.DefaultConfig(m, m, seed+int64(m)*7))
		if err != nil {
			return nil, err
		}
		if _, err := s.Run(megh); err != nil {
			return nil, err
		}
		out[m] = append([]int(nil), megh.NNZHistory()...)
	}
	return out, nil
}

// WriteQTableGrowthCSV emits Figure 7's series: one column per size.
func WriteQTableGrowthCSV(w io.Writer, growth map[int][]int, sizes []int) error {
	header := "step"
	for _, m := range sizes {
		header += fmt.Sprintf(",nnz_m%d", m)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	steps := 0
	for _, m := range sizes {
		if len(growth[m]) > steps {
			steps = len(growth[m])
		}
	}
	for t := 0; t < steps; t++ {
		line := fmt.Sprintf("%d", t)
		for _, m := range sizes {
			if t < len(growth[m]) {
				line += fmt.Sprintf(",%d", growth[m][t])
			} else {
				line += ","
			}
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// SensitivityPoint is one boxplot of Figure 8: the distribution of per-step
// cost across repetitions at one parameter value.
type SensitivityPoint struct {
	Param   float64
	Boxplot stats.Boxplot
}

// RunSensitivityTemp reproduces Figure 8(a): per-step-cost boxplots as
// Temp₀ varies with ε fixed (paper: ε = 0.001, Temp₀ ∈ {0.5, 1, …, 10},
// 25 repetitions).
func RunSensitivityTemp(setup Setup, temps []float64, epsilon float64, reps int) ([]SensitivityPoint, error) {
	return runSensitivity(setup, temps, reps, func(c *core.Config, v float64) {
		c.Temp0 = v
		c.Epsilon = epsilon
	})
}

// RunSensitivityEpsilon reproduces Figure 8(b): boxplots as ε varies with
// Temp₀ fixed (paper: Temp₀ = 1, 30 log-spaced ε in [10⁻³, 10⁰]).
func RunSensitivityEpsilon(setup Setup, epsilons []float64, temp0 float64, reps int) ([]SensitivityPoint, error) {
	return runSensitivity(setup, epsilons, reps, func(c *core.Config, v float64) {
		c.Epsilon = v
		c.Temp0 = temp0
	})
}

func runSensitivity(setup Setup, params []float64, reps int,
	apply func(*core.Config, float64)) ([]SensitivityPoint, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiments: reps %d must be positive", reps)
	}
	out := make([]SensitivityPoint, 0, len(params))
	for _, v := range params {
		var costs []float64
		for rep := 0; rep < reps; rep++ {
			s := setup
			s.Seed = setup.Seed + int64(rep)*2003
			cfg, err := s.Build()
			if err != nil {
				return nil, err
			}
			simulator, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			mc := core.DefaultConfig(s.VMs, s.Hosts, s.Seed+7)
			apply(&mc, v)
			megh, err := core.New(mc)
			if err != nil {
				return nil, err
			}
			res, err := simulator.Run(megh)
			if err != nil {
				return nil, err
			}
			costs = append(costs, res.PerStepCosts()...)
		}
		out = append(out, SensitivityPoint{Param: v, Boxplot: stats.BoxplotOf(costs)})
	}
	return out, nil
}

// WriteSensitivityCSV emits Figure 8's boxplot summaries.
func WriteSensitivityCSV(w io.Writer, pts []SensitivityPoint) error {
	if _, err := fmt.Fprintln(w, "param,p05,q1,median,q3,p95"); err != nil {
		return err
	}
	for _, p := range pts {
		b := p.Boxplot
		if _, err := fmt.Fprintf(w, "%g,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			p.Param, b.P05, b.Q1, b.Median, b.Q3, b.P95); err != nil {
			return err
		}
	}
	return nil
}
