package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCorrelationKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Correlation(xs, xs); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("self correlation = %g", got)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("anti correlation = %g", got)
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	if Correlation([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("length mismatch should yield 0")
	}
	if Correlation([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant series should yield 0")
	}
	if Correlation([]float64{1}, []float64{2}) != 0 {
		t.Fatal("too-short series should yield 0")
	}
}

func TestAutocorrelation(t *testing.T) {
	// A strongly persistent series has high lag-1 autocorrelation.
	xs := make([]float64, 500)
	r := rand.New(rand.NewSource(2))
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.95*xs[i-1] + 0.05*r.NormFloat64()
	}
	if got := Autocorrelation(xs, 1); got < 0.8 {
		t.Fatalf("lag-1 autocorrelation = %g, want ≥ 0.8", got)
	}
	if Autocorrelation(xs, 0) != 0 || Autocorrelation(xs, len(xs)) != 0 {
		t.Fatal("degenerate lags should yield 0")
	}
}

// Property: correlation is symmetric and bounded in [−1, 1].
func TestQuickCorrelationBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		c1 := Correlation(xs, ys)
		c2 := Correlation(ys, xs)
		return almostEqual(c1, c2, 1e-12) && c1 >= -1-1e-12 && c1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
