package stats

// Streaming histogram: constant-space quantile sketches that merge
// exactly. The obs registry records latency samples into one per
// instrument; the service keeps one per makespan/queue-wait series so
// the metrics API can report p50/p95/p99 over every sample ever taken,
// not just the ones still buffered.
//
// Buckets are log-linear: each power-of-two octave of the positive
// reals splits into histSub equal sub-buckets, so relative bucket
// width is 1/histSub (12.5%) everywhere — quantile error is bounded by
// that ratio regardless of the value range. Merging adds bucket counts
// element-wise, which is exactly associative and commutative; only the
// float Sum accumulates rounding.

import (
	"fmt"
	"math"
)

const (
	// histSub sub-buckets per power-of-two octave.
	histSub = 8
	// Octave exponents covered: math.Frexp exponents in
	// [histMinExp, histMaxExp). 2^-32 s ≈ 0.2 ns and 2^32 s ≈ 136
	// years bracket every duration or size this repo measures;
	// values outside clamp to the edge buckets.
	histMinExp = -32
	histMaxExp = 32
	// histBuckets: one underflow bucket (index 0, values ≤ 0 or
	// below range) plus the log-linear grid.
	histBuckets = (histMaxExp-histMinExp)*histSub + 1
)

// bucketIndex maps a sample to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac ∈ [0.5, 1)
	if exp < histMinExp {
		return 0
	}
	sub := int((frac - 0.5) * (2 * histSub))
	if sub >= histSub {
		sub = histSub - 1
	}
	if exp >= histMaxExp {
		exp, sub = histMaxExp-1, histSub-1
	}
	return 1 + (exp-histMinExp)*histSub + sub
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 0
	}
	k := i - 1
	exp := histMinExp + k/histSub
	sub := k % histSub
	scale := math.Ldexp(1, exp) // 2^exp
	lo = (0.5 + float64(sub)/(2*histSub)) * scale
	hi = lo + scale/(2*histSub)
	return lo, hi
}

// StreamHist is a mergeable streaming histogram. The zero value is
// ready to use. Not safe for concurrent mutation — the obs registry
// wraps it with its own synchronization.
type StreamHist struct {
	counts [histBuckets]int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// Add records one sample.
func (h *StreamHist) Add(v float64) {
	h.counts[bucketIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Merge folds o into h. Bucket counts add element-wise, so merging is
// associative and commutative up to float rounding in Sum.
func (h *StreamHist) Merge(o *StreamHist) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of recorded samples.
func (h *StreamHist) Count() int64 { return h.n }

// Sum returns the sum of all recorded samples.
func (h *StreamHist) Sum() float64 { return h.sum }

// Mean returns the mean sample, 0 when empty.
func (h *StreamHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min and Max return the extreme samples seen (exact, not bucketed).
func (h *StreamHist) Min() float64 { return h.min }
func (h *StreamHist) Max() float64 { return h.max }

// Quantile returns the p-quantile (p in [0,1]) with linear
// interpolation inside the landing bucket. Relative error is bounded
// by the bucket width (1/histSub). Empty hist returns 0.
func (h *StreamHist) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		return h.max
	}
	// Rank of the target sample (0-based, same convention as
	// stats.Percentile over a sorted slice).
	rank := p * float64(h.n-1)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		// Bucket i holds samples with 0-based ranks [cum, cum+c).
		if rank < float64(cum+c) {
			if i == 0 {
				return h.min
			}
			lo, hi := bucketBounds(i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.max
}

// HistSummary is the JSON-friendly digest of a StreamHist, used by the
// service metrics API and the obs exposition.
type HistSummary struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram.
func (h *StreamHist) Summary() HistSummary {
	return HistSummary{
		Count: h.n,
		Min:   h.min,
		Max:   h.max,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

func (s HistSummary) String() string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g mean=%.4g",
		s.Count, s.Min, s.P50, s.P95, s.P99, s.Max, s.Mean)
}

// Equal reports whether two hists hold identical bucket counts and
// extremes (sums may differ by float rounding across merge orders).
func (h *StreamHist) Equal(o *StreamHist) bool {
	if h.n != o.n || h.min != o.min || h.max != o.max {
		return false
	}
	return h.counts == o.counts
}
