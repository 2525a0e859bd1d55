package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"megh/internal/stats"
)

func TestTraceAtWrapsAndClamps(t *testing.T) {
	tr := Trace{0.1, 0.2, 0.3}
	if tr.At(0) != 0.1 || tr.At(2) != 0.3 {
		t.Fatal("basic indexing broken")
	}
	if tr.At(3) != 0.1 || tr.At(7) != 0.2 {
		t.Fatal("wrap-around broken")
	}
	if tr.At(-5) != 0.1 {
		t.Fatal("negative step should clamp to start")
	}
	var empty Trace
	if empty.At(4) != 0 {
		t.Fatal("empty trace should read 0")
	}
}

func TestTraceMean(t *testing.T) {
	if m := (Trace{0.2, 0.4}).Mean(); math.Abs(m-0.3) > 1e-12 {
		t.Fatalf("Mean = %g, want 0.3", m)
	}
	if (Trace{}).Mean() != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestClamp01(t *testing.T) {
	if Clamp01(-0.5) != 0 || Clamp01(1.5) != 1 || Clamp01(0.25) != 0.25 {
		t.Fatal("Clamp01 wrong")
	}
}

func TestStepConstants(t *testing.T) {
	if StepsPerDay != 288 || SevenDays != 2016 || ThreeDays != 864 {
		t.Fatalf("step constants wrong: %d %d %d", StepsPerDay, SevenDays, ThreeDays)
	}
}

// TestWriteTrace pins WriteTrace's output byte for byte: one integer
// percentage per line, samples clamped into [0,1] first and rounded half up
// to the nearest percent.
func TestWriteTrace(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   Trace
		want string
	}{
		{"empty", Trace{}, ""},
		{"zero-and-one", Trace{0, 1}, "0\n100\n"},
		{"clamped", Trace{-0.25, -1e-9, 1 + 1e-9, 1.5}, "0\n0\n100\n100\n"},
		{"half-percent-rounds-up", Trace{0.005, 0.125, 0.375, 0.995}, "1\n13\n38\n100\n"},
		{"below-half-rounds-down", Trace{0.0049, 0.07, 0.1249, 0.994}, "0\n7\n12\n99\n"},
	} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, c.tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := buf.String(); got != c.want {
			t.Errorf("%s: WriteTrace wrote %q, want %q", c.name, got, c.want)
		}
	}
}

// TestPlanetLabMatchesPaperStatistics is the generator's contract with §6.2:
// sample mean ≈ 12 %, std ≈ 34 %, per-step max ≈ 90 %+, and all samples in
// [0,1].
func TestPlanetLabMatchesPaperStatistics(t *testing.T) {
	cfg := DefaultPlanetLabConfig(1)
	const nVM = 200
	traces, err := GeneratePlanetLab(cfg, nVM)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != nVM {
		t.Fatalf("got %d traces", len(traces))
	}
	var all []float64
	for _, tr := range traces {
		if tr.Len() != SevenDays {
			t.Fatalf("trace length %d, want %d", tr.Len(), SevenDays)
		}
		for _, u := range tr {
			if u < 0 || u > 1 {
				t.Fatalf("sample %g out of [0,1]", u)
			}
			all = append(all, u)
		}
	}
	mean := stats.Mean(all)
	std := stats.StdDev(all)
	if mean < 0.08 || mean > 0.17 {
		t.Errorf("population mean = %.3f, want ≈0.12 (paper §6.2)", mean)
	}
	if std < 0.24 || std > 0.40 {
		t.Errorf("population std = %.3f, want ≈0.34 (paper §6.2)", std)
	}
	// Instantaneous spread across VMs: at most steps the max should be
	// near saturation and the min near idle.
	hiSteps := 0
	for step := 0; step < SevenDays; step += 24 {
		var mx, mn float64 = 0, 1
		for _, tr := range traces {
			u := tr.At(step)
			if u > mx {
				mx = u
			}
			if u < mn {
				mn = u
			}
		}
		if mx > 0.80 && mn < 0.10 {
			hiSteps++
		}
	}
	if hiSteps < SevenDays/24*9/10 {
		t.Errorf("only %d sampled steps show the paper's 5%%–90%% spread", hiSteps)
	}
}

func TestPlanetLabDeterministicBySeed(t *testing.T) {
	a, err := GeneratePlanetLab(DefaultPlanetLabConfig(7), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePlanetLab(DefaultPlanetLabConfig(7), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed produced different traces")
			}
		}
	}
	c, err := GeneratePlanetLab(DefaultPlanetLabConfig(8), 3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestPlanetLabValidation(t *testing.T) {
	bad := DefaultPlanetLabConfig(1)
	bad.PIdleToBusy = 1.5
	if _, err := GeneratePlanetLab(bad, 1); err == nil {
		t.Fatal("expected validation error for probability > 1")
	}
	bad2 := DefaultPlanetLabConfig(1)
	bad2.Steps = -1
	if _, err := GeneratePlanetLab(bad2, 1); err == nil {
		t.Fatal("expected validation error for negative steps")
	}
	if _, err := GeneratePlanetLab(DefaultPlanetLabConfig(1), -1); err == nil {
		t.Fatal("expected error for negative count")
	}
}

func TestPlanetLabBurstsAreSustained(t *testing.T) {
	// The paper stresses "long duration but high variance" workloads;
	// consecutive samples must be strongly correlated (not i.i.d. noise).
	traces, err := GeneratePlanetLab(DefaultPlanetLabConfig(3), 50)
	if err != nil {
		t.Fatal(err)
	}
	var num, denA, denB float64
	for _, tr := range traces {
		m := tr.Mean()
		for t2 := 1; t2 < tr.Len(); t2++ {
			num += (tr[t2] - m) * (tr[t2-1] - m)
			denA += (tr[t2] - m) * (tr[t2] - m)
			denB += (tr[t2-1] - m) * (tr[t2-1] - m)
		}
	}
	rho := num / math.Sqrt(denA*denB)
	if rho < 0.7 {
		t.Fatalf("lag-1 autocorrelation = %.3f, want ≥ 0.7 (sustained bursts)", rho)
	}
}

// TestGoogleMatchesPaperCharacteristics checks §6.2/Fig. 1b: wide log-spread
// durations, low utilization, valid samples.
func TestGoogleMatchesPaperCharacteristics(t *testing.T) {
	cfg := DefaultGoogleConfig(1)
	traces, tasks, err := GenerateGoogle(cfg, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 150 {
		t.Fatalf("got %d traces", len(traces))
	}
	if len(tasks) == 0 {
		t.Fatal("no tasks generated")
	}
	var minDur, maxDur = math.Inf(1), math.Inf(-1)
	for _, task := range tasks {
		if task.DurationSec < cfg.MinDurationSec-1e-9 || task.DurationSec > cfg.MaxDurationSec+1e-9 {
			t.Fatalf("task duration %g out of bounds", task.DurationSec)
		}
		minDur = math.Min(minDur, task.DurationSec)
		maxDur = math.Max(maxDur, task.DurationSec)
	}
	if math.Log10(maxDur/minDur) < 3 {
		t.Errorf("duration spread only %.1f decades, want ≥ 3 (Fig. 1b: 10¹–10⁶ s)",
			math.Log10(maxDur/minDur))
	}
	var all []float64
	for _, tr := range traces {
		for _, u := range tr {
			if u < 0 || u > 1 {
				t.Fatalf("sample %g out of [0,1]", u)
			}
			all = append(all, u)
		}
	}
	if m := stats.Mean(all); m > 0.15 {
		t.Errorf("Google mean utilization = %.3f, want low (< 0.15)", m)
	}
	// Durations should not look like a single standard distribution: the
	// log-durations' kurtosis should differ clearly from a Gaussian's 3.
	logs := make([]float64, len(tasks))
	for i, task := range tasks {
		logs[i] = math.Log10(task.DurationSec)
	}
	if k := stats.Kurtosis(logs); math.Abs(k-3) < 0.2 {
		t.Logf("note: log-duration kurtosis %.2f close to normal; acceptable but unexpected", k)
	}
}

func TestGoogleDeterministicBySeed(t *testing.T) {
	a, _, err := GenerateGoogle(DefaultGoogleConfig(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GenerateGoogle(DefaultGoogleConfig(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed produced different Google traces")
			}
		}
	}
}

func TestGoogleValidation(t *testing.T) {
	bad := DefaultGoogleConfig(1)
	bad.MinDurationSec = 0
	if _, _, err := GenerateGoogle(bad, 1); err == nil {
		t.Fatal("expected validation error for zero MinDurationSec")
	}
	bad2 := DefaultGoogleConfig(1)
	bad2.IdleGapProb = 2
	if _, _, err := GenerateGoogle(bad2, 1); err == nil {
		t.Fatal("expected validation error for IdleGapProb > 1")
	}
	if _, _, err := GenerateGoogle(DefaultGoogleConfig(1), -2); err == nil {
		t.Fatal("expected error for negative count")
	}
}

// Property: generated traces always stay in [0,1] across random configs.
func TestQuickGeneratorsBounded(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultPlanetLabConfig(seed)
		cfg.Steps = 100
		trs, err := GeneratePlanetLab(cfg, 5)
		if err != nil {
			return false
		}
		gcfg := DefaultGoogleConfig(seed)
		gcfg.Steps = 100
		gtrs, _, err := GenerateGoogle(gcfg, 5)
		if err != nil {
			return false
		}
		for _, set := range [][]Trace{trs, gtrs} {
			for _, tr := range set {
				for _, u := range tr {
					if u < 0 || u > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussClamped(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := gaussClamped(r, 0.5, 10, 0.2, 0.8)
		if v < 0.2 || v > 0.8 {
			t.Fatalf("gaussClamped escaped bounds: %g", v)
		}
	}
}
