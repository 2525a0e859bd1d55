package stats

import "math"

// Correlation returns the Pearson correlation coefficient of two
// equal-length samples, or 0 when either is degenerate (constant or too
// short). It backs the Maximum-Correlation VM selection policy.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Autocorrelation returns the lag-k autocorrelation of xs, or 0 when the
// series is too short or constant. Used to characterise trace burstiness.
func Autocorrelation(xs []float64, lag int) float64 {
	if lag <= 0 || len(xs) <= lag {
		return 0
	}
	return Correlation(xs[:len(xs)-lag], xs[lag:])
}
