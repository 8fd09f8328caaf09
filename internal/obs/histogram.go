package obs

import (
	"sync"

	"repro/internal/stats"
)

// Histogram is the registry's concurrent streaming histogram: one
// stats.StreamHist behind a mutex. Its callers already observe under
// their own lock, so the mutex only orders them against scrapes.
type Histogram struct {
	mu sync.Mutex
	h  stats.StreamHist
}

// NewHistogram returns an empty concurrent histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() *stats.StreamHist {
	h.mu.Lock()
	out := h.h
	h.mu.Unlock()
	return &out
}
