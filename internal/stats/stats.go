// Package stats provides the descriptive statistics and local-regression
// routines used across the reproduction: summary statistics for workload
// characterisation (Figure 1), adaptive thresholds for the IQR/MAD-MMT
// baselines, Loess local regression for the LR/LRR-MMT baselines, and
// boxplot summaries for the sensitivity analysis (Figure 8).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, or 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks (type-7, the R default). It panics on an empty slice
// or out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s[lo]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQR returns the interquartile range Q3 − Q1, used by the IQR-MMT adaptive
// overload threshold.
func IQR(xs []float64) float64 {
	return Quantile(xs, 0.75) - Quantile(xs, 0.25)
}

// MAD returns the median absolute deviation from the median, used by the
// MAD-MMT adaptive overload threshold.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// Kurtosis returns the (non-excess) sample kurtosis, 0 when the variance
// vanishes. A normal distribution has kurtosis 3; the workload tests use it
// to check the generators' heavy tails (paper §6.2).
func Kurtosis(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d * d
	}
	return s / float64(len(xs))
}

// Boxplot holds the five-number summary plus the 5th/95th percentile whiskers
// used by the Figure-8 sensitivity plots ("median and 90 percentile
// distribution of the per-step cost").
type Boxplot struct {
	P05, Q1, Median, Q3, P95 float64
}

// BoxplotOf computes the boxplot summary of xs. It panics on empty input.
func BoxplotOf(xs []float64) Boxplot {
	return Boxplot{
		P05:    Quantile(xs, 0.05),
		Q1:     Quantile(xs, 0.25),
		Median: Median(xs),
		Q3:     Quantile(xs, 0.75),
		P95:    Quantile(xs, 0.95),
	}
}

// Histogram counts xs into nbins equal-width bins over [lo, hi]; samples
// outside the range are clamped into the edge bins. It panics unless
// nbins ≥ 1 and hi > lo.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins < 1 {
		panic("stats: Histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: Histogram needs hi > lo")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

// LogHistogram counts xs into nbins log10-spaced bins over [lo, hi]. It is
// used for the Google task-duration distribution (Figure 1b), where
// durations span 10¹–10⁶ seconds. Non-positive samples are dropped.
func LogHistogram(xs []float64, lo, hi float64, nbins int) []int {
	if lo <= 0 || hi <= lo {
		panic("stats: LogHistogram needs 0 < lo < hi")
	}
	logs := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			logs = append(logs, math.Log10(x))
		}
	}
	return Histogram(logs, math.Log10(lo), math.Log10(hi), nbins)
}
