// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) at benchmark scale. Each BenchmarkTableN_* / BenchmarkFigureN* runs
// the same experiment code as the cmd/experiments registry, shrunk so the
// whole suite completes in minutes; custom metrics report the quantities
// the paper's table columns hold (cost_usd, migrations, exec time). The
// full-scale numbers live in results/ and EXPERIMENTS.md and are
// regenerated with go run ./cmd/experiments -run all.
//
// BenchmarkAblation* cover the design choices DESIGN.md §4 calls out:
// Sherman–Morrison vs dense re-inversion, and fill-in truncation on/off.
package megh_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
	"time"

	"megh"
	"megh/internal/experiments"
	"megh/internal/sparse"
)

// benchTable runs one policy on a Table-2/3-shaped setup and reports the
// table's columns as benchmark metrics.
func benchTable(b *testing.B, setup experiments.Setup, policy string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPolicy(setup, policy)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalCost(), "cost_usd")
		b.ReportMetric(float64(res.TotalMigrations()), "migrations")
		b.ReportMetric(res.MeanActiveHosts(), "active_hosts")
		b.ReportMetric(res.MeanDecideSeconds()*1e3, "decide_ms")
	}
}

// Table 2 (PlanetLab, 800×1052×2016 in the paper; ⅛ scale here).
func table2Setup() experiments.Setup { return experiments.PaperPlanetLab(1).Scaled(8) }

func BenchmarkTable2_THRMMT(b *testing.B) { benchTable(b, table2Setup(), "THR-MMT") }
func BenchmarkTable2_IQRMMT(b *testing.B) { benchTable(b, table2Setup(), "IQR-MMT") }
func BenchmarkTable2_MADMMT(b *testing.B) { benchTable(b, table2Setup(), "MAD-MMT") }
func BenchmarkTable2_LRMMT(b *testing.B)  { benchTable(b, table2Setup(), "LR-MMT") }
func BenchmarkTable2_LRRMMT(b *testing.B) { benchTable(b, table2Setup(), "LRR-MMT") }
func BenchmarkTable2_Megh(b *testing.B)   { benchTable(b, table2Setup(), "Megh") }

// Table 3 (Google Cluster, 500×2000×2016 in the paper; ⅛ scale here).
func table3Setup() experiments.Setup { return experiments.PaperGoogle(1).Scaled(8) }

func BenchmarkTable3_THRMMT(b *testing.B) { benchTable(b, table3Setup(), "THR-MMT") }
func BenchmarkTable3_IQRMMT(b *testing.B) { benchTable(b, table3Setup(), "IQR-MMT") }
func BenchmarkTable3_MADMMT(b *testing.B) { benchTable(b, table3Setup(), "MAD-MMT") }
func BenchmarkTable3_LRMMT(b *testing.B)  { benchTable(b, table3Setup(), "LR-MMT") }
func BenchmarkTable3_LRRMMT(b *testing.B) { benchTable(b, table3Setup(), "LRR-MMT") }
func BenchmarkTable3_Megh(b *testing.B)   { benchTable(b, table3Setup(), "Megh") }

// Figure 1(a): PlanetLab workload dynamics.
func BenchmarkFigure1a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure1a(132, 288, 1)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, m := range fig.Mean {
			mean += m
		}
		b.ReportMetric(mean/float64(len(fig.Mean)), "mean_util_pct")
	}
}

// Figure 1(b): Google task-duration histogram.
func BenchmarkFigure1b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure1b(250, 288, 1, 20)
		if err != nil {
			b.Fatal(err)
		}
		tasks := 0
		for _, c := range fig.Counts {
			tasks += c
		}
		b.ReportMetric(float64(tasks), "tasks")
	}
}

// Figures 2 and 3: per-step series, Megh vs THR-MMT.
func benchSeries(b *testing.B, setup experiments.Setup) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set, err := experiments.RunSeries(setup, []string{"Megh", "THR-MMT"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(set["Megh"].TotalCost(), "megh_cost_usd")
		b.ReportMetric(set["THR-MMT"].TotalCost(), "thr_cost_usd")
	}
}

func BenchmarkFigure2(b *testing.B) { benchSeries(b, experiments.PaperPlanetLab(1).Scaled(8)) }
func BenchmarkFigure3(b *testing.B) { benchSeries(b, experiments.PaperGoogle(1).Scaled(8)) }

// Figures 4 and 5: Megh vs MadVM on the 100×150 subset (¼-length horizon).
func benchMadVMComparison(b *testing.B, ds experiments.Dataset) {
	b.Helper()
	setup := experiments.PaperMadVMSubset(ds, 1)
	setup.Steps /= 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set, err := experiments.RunSeries(setup, []string{"Megh", "MadVM"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(set["Megh"].MeanDecideSeconds()*1e3, "megh_decide_ms")
		b.ReportMetric(set["MadVM"].MeanDecideSeconds()*1e3, "madvm_decide_ms")
	}
}

func BenchmarkFigure4(b *testing.B) { benchMadVMComparison(b, experiments.PlanetLab) }
func BenchmarkFigure5(b *testing.B) { benchMadVMComparison(b, experiments.Google) }

// Figure 6: scalability grids (paper: sizes 100..800 × 25 reps; benchmark
// scale: two sizes × 2 reps over a 3-hour horizon).
func benchScalability(b *testing.B, policy string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunScalability(experiments.PlanetLab, policy,
			[]int{50, 100}, 2, 36, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].MeanDecideMs, "largest_grid_decide_ms")
	}
}

func BenchmarkFigure6_THRMMT(b *testing.B) { benchScalability(b, "THR-MMT") }
func BenchmarkFigure6_Megh(b *testing.B)   { benchScalability(b, "Megh") }

// Figure 7: Q-table growth over time for two data-center sizes.
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		growth, err := experiments.QTableGrowth(experiments.PlanetLab, []int{50, 100}, 144, 1)
		if err != nil {
			b.Fatal(err)
		}
		h := growth[100]
		b.ReportMetric(float64(h[len(h)-1]), "final_nnz_m100")
	}
}

// Figure 8(a): Temp₀ sensitivity (paper: 20 values × 25 reps; benchmark:
// 3 values × 2 reps on a small world).
func BenchmarkFigure8a(b *testing.B) {
	setup := experiments.Setup{Dataset: experiments.PlanetLab, Hosts: 25, VMs: 33, Steps: 72, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunSensitivityTemp(setup, []float64{0.5, 3, 10}, 0.001, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].Boxplot.Median, "median_cost_t3")
	}
}

// Figure 8(b): ε sensitivity.
func BenchmarkFigure8b(b *testing.B) {
	setup := experiments.Setup{Dataset: experiments.PlanetLab, Hosts: 25, VMs: 33, Steps: 72, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunSensitivityEpsilon(setup, []float64{0.001, 0.1, 1}, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Boxplot.Median, "median_cost_e001")
	}
}

// Ablation: Sherman–Morrison incremental inverse vs Gauss–Jordan
// re-inversion for a Megh-shaped update stream (DESIGN.md §4). The paper's
// §5.2 claims this is the difference between O(#m) and O(d³) per step.
func BenchmarkAblationShermanMorrison(b *testing.B) {
	const dim = 256
	m := sparse.NewMatrix(dim, 1.0/dim)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, nb := r.Intn(dim), r.Intn(dim)
		if _, err := m.ShermanMorrisonBasis(a, nb, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDenseReinversion(b *testing.B) {
	const dim = 256
	t := sparse.NewDenseIdentity(dim, float64(dim))
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, nb := r.Intn(dim), r.Intn(dim)
		u := make([]float64, dim)
		u[a] = 1
		v := make([]float64, dim)
		v[a] += 1
		v[nb] -= 0.5
		t.AddOuter(1, u, v)
		if _, err := t.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: fill-in truncation. Without a drop tolerance the Q-table
// densifies superlinearly under repeated actions; with it, growth stays
// linear (the paper's Figure-7 behaviour).
func benchAblationDropTolerance(b *testing.B, tol float64) {
	const dim = 4096
	const actions = 64 // heavy action reuse to force fill-in
	r := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := sparse.NewMatrix(dim, 1.0/dim)
		m.SetDropTolerance(tol)
		b.StartTimer()
		for step := 0; step < 400; step++ {
			a, nb := r.Intn(actions), r.Intn(actions)
			if _, err := m.ShermanMorrisonBasis(a, nb, 0.5); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(m.NNZ()), "final_nnz")
	}
}

func BenchmarkAblationDropToleranceOff(b *testing.B) { benchAblationDropTolerance(b, 0) }
func BenchmarkAblationDropToleranceOn(b *testing.B) {
	benchAblationDropTolerance(b, 1e-9/4096)
}

// BenchmarkQuickstart measures the documented public-API flow end to end.
func BenchmarkQuickstart(b *testing.B) {
	setup := megh.Setup{Dataset: megh.PlanetLab, Hosts: 25, VMs: 33, Steps: 72, Seed: 1}
	cfg, err := setup.Build()
	if err != nil {
		b.Fatal(err)
	}
	s, err := megh.NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learner, err := megh.New(megh.DefaultConfig(setup.VMs, setup.Hosts, 42))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(learner); err != nil {
			b.Fatal(err)
		}
	}
}

// soakWeek is one simulated week of τ = 5 min steps.
const soakWeek = 2016

// soakPolicy is a learner whose Decide calls are timed into per-week sums.
type soakPolicy struct {
	*megh.Learner
	week []time.Duration
}

func (p *soakPolicy) Decide(s *megh.Snapshot) []megh.Migration {
	start := time.Now()
	migs := p.Learner.Decide(s)
	p.week[s.Step/soakWeek] += time.Since(start)
	return migs
}

// BenchmarkSoak is the long-horizon instrument (ROADMAP item 2): the
// repository benchmark's sim-local world — the paper's Table-2 setup,
// PlanetLab 800 × 1 052, 7-day traces replayed — run for a fixed 48 384
// steps (sim-local at -seconds 20), reporting what a decide costs early
// (week 2, counted from 0) and late (week 20) and what the learner has
// accumulated by the end. A step's cost must follow the world, not the run
// length (§5.2, Theorem 2): week 20 within a small factor of week 2, while
// B's and z's NNZ keep growing. Run with -benchtime=1x; ns/op is the whole
// run, simulator included.
func BenchmarkSoak(b *testing.B) {
	b.Run("paper800-20w", func(b *testing.B) {
		const steps = 48384
		setup := experiments.Setup{
			Dataset: experiments.PlanetLab, Hosts: 800, VMs: 1052,
			Steps: soakWeek, Seed: 1, Placement: megh.PlacementRandom,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			learner, err := megh.New(megh.DefaultConfig(setup.VMs, setup.Hosts, setup.PolicySeed()))
			if err != nil {
				b.Fatal(err)
			}
			p := &soakPolicy{Learner: learner, week: make([]time.Duration, steps/soakWeek)}
			if _, err := experiments.RunCustom(setup, p, func(c *megh.SimConfig) { c.Steps = steps }); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(p.week[2].Nanoseconds())/soakWeek, "week2_ns/decide")
			b.ReportMetric(float64(p.week[20].Nanoseconds())/soakWeek, "week20_ns/decide")
			b.ReportMetric(float64(learner.QTableNNZ()), "final_b_nnz")
			b.ReportMetric(float64(imageZNNZ(b, learner)), "final_z_nnz")
		}
	})
}

// imageZNNZ counts z's stored entries in the learner's checkpoint image:
// gob matches fields by name, so the image decodes into a struct naming Z
// alone, whose packed value list holds one 8-byte word per entry.
func imageZNNZ(b *testing.B, learner *megh.Learner) int {
	var img bytes.Buffer
	if err := learner.SaveState(&img); err != nil {
		b.Fatal(err)
	}
	var st struct{ Z sparse.VectorState }
	if err := gob.NewDecoder(&img).Decode(&st); err != nil {
		b.Fatal(err)
	}
	return len(st.Z.PackedValue) / 8
}

// idlePolicy never migrates: the simulator's step with no policy cost.
type idlePolicy struct{}

func (idlePolicy) Name() string                           { return "idle" }
func (idlePolicy) Decide(*megh.Snapshot) []megh.Migration { return nil }

// BenchmarkSimStep prices the simulator's own share of a step: sim-local's
// world (PlanetLab 800 × 1 052, one week of trace replayed, seed 1) under a
// policy that never migrates, for a fixed four weeks (8 064 steps). Run with
// -benchtime=1x; ns/step is the figure (world construction excluded), and
// sim-local's decisions_per_s is mostly this number plus Megh's own
// Decide and Observe.
func BenchmarkSimStep(b *testing.B) {
	b.Run("paper800", func(b *testing.B) {
		const steps = 4 * soakWeek
		setup := experiments.Setup{
			Dataset: experiments.PlanetLab, Hosts: 800, VMs: 1052,
			Steps: soakWeek, Seed: 1, Placement: megh.PlacementRandom,
		}
		cfg, err := setup.Build()
		if err != nil {
			b.Fatal(err)
		}
		cfg.Steps = steps
		s, err := megh.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(idlePolicy{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	})
}
