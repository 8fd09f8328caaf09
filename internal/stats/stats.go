// Package stats provides the small summary-statistics toolkit the
// experiment harness uses to describe distributions (per-process memory
// peaks, task durations, snapshot latencies): min/max/mean, percentiles
// and imbalance factors.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 values.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	StdDev float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (0 <= p <= 1) of a sorted sample,
// with linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Imbalance returns max/mean of the sample — the load-balance factor the
// scheduling literature reports (1.0 = perfectly balanced). An empty or
// all-zero sample returns 0.
func Imbalance(xs []float64) float64 {
	s := Summarize(xs)
	if s.Mean == 0 {
		return 0
	}
	return s.Max / s.Mean
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g mean=%.4g p90=%.4g p99=%.4g max=%.4g σ=%.3g",
		s.N, s.Min, s.P50, s.Mean, s.P90, s.P99, s.Max, s.StdDev)
}
