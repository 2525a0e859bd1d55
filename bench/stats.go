package main

import (
	"math"
	"sort"
	"time"

	"megh/internal/stats"
)

// metric is one named number with its unit, as BENCHMARK.json lists it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples is a set of per-operation latencies.
type samples []time.Duration

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of s, or 0
// when s is empty. It sorts a copy, so callers may keep appending.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat is stats.Median, 0 for no values.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Median(v)
}
