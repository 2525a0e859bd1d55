package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestMeanKnown(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %g, want 2", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of single sample should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileSingle(t *testing.T) {
	if got := Quantile([]float64{9}, 0.3); got != 9 {
		t.Fatalf("Quantile single = %g", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for i, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestMedianIQRMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if got := Median(xs); got != 2 {
		t.Fatalf("Median = %g, want 2", got)
	}
	if got := MAD(xs); got != 1 {
		t.Fatalf("MAD = %g, want 1", got)
	}
	if got := IQR(xs); !almostEqual(got, 3.5, 1e-12) {
		t.Fatalf("IQR = %g, want 3.5", got)
	}
}

func TestKurtosisNormalApprox(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if got := Kurtosis(xs); !almostEqual(got, 3, 0.1) {
		t.Fatalf("Kurtosis of normal sample = %g, want ≈3", got)
	}
}

func TestMomentsDegenerateSample(t *testing.T) {
	xs := []float64{4, 4, 4}
	if Kurtosis(xs) != 0 {
		t.Fatal("constant sample should have zero kurtosis by convention")
	}
}

func TestBoxplotOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	b := BoxplotOf(xs)
	if !(b.P05 <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.P95) {
		t.Fatalf("boxplot not ordered: %+v", b)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.55, 0.9, -5, 17}
	h := Histogram(xs, 0, 1, 2)
	if h[0] != 3 || h[1] != 3 {
		t.Fatalf("Histogram = %v, want [3 3] (outliers clamped)", h)
	}
}

func TestHistogramPanics(t *testing.T) {
	for i, f := range []func(){
		func() { Histogram(nil, 0, 1, 0) },
		func() { Histogram(nil, 1, 1, 3) },
		func() { LogHistogram(nil, 0, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLogHistogram(t *testing.T) {
	xs := []float64{10, 100, 1000, 100000, -3, 0}
	h := LogHistogram(xs, 1, 1e6, 6)
	// log10 values 1,2,3,5 over [0,6] with 6 bins → bins 1,2,3,5.
	want := []int{0, 1, 1, 1, 0, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("LogHistogram = %v, want %v", h, want)
		}
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*20 - 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v := Quantile(xs, qq)
			if v < prev-1e-12 || v < Min(xs)-1e-12 || v > Max(xs)+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MAD and IQR are translation invariant and scale linearly.
func TestQuickRobustScaleProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 5
		}
		shift := r.Float64()*10 - 5
		scale := 0.5 + r.Float64()*3
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = xs[i]*scale + shift
		}
		okMAD := almostEqual(MAD(ys), scale*MAD(xs), 1e-9)
		okIQR := almostEqual(IQR(ys), scale*IQR(xs), 1e-9)
		return okMAD && okIQR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
