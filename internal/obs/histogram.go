package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// histStripes spreads concurrent Observe calls over independent
// sub-histograms so the hot path never contends on one lock. Snapshot
// merges the stripes (exact: StreamHist merge adds bucket counts).
const histStripes = 8

// Histogram is the registry's concurrent streaming histogram: striped
// stats.StreamHist shards, each behind its own mutex with a
// nanoseconds-long critical section. Writers round-robin across
// stripes; on collision they trylock-cascade to the next free one.
type Histogram struct {
	next    atomic.Uint64
	stripes [histStripes]histStripe
}

type histStripe struct {
	mu sync.Mutex
	h  stats.StreamHist
	// Pad stripes apart so the mutexes don't share a cache line.
	_ [64]byte
}

// NewHistogram returns an empty concurrent histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	start := h.next.Add(1)
	for i := uint64(0); i < histStripes; i++ {
		s := &h.stripes[(start+i)%histStripes]
		if s.mu.TryLock() {
			s.h.Add(v)
			s.mu.Unlock()
			return
		}
	}
	// Every stripe busy: wait on the home stripe.
	s := &h.stripes[start%histStripes]
	s.mu.Lock()
	s.h.Add(v)
	s.mu.Unlock()
}

// Snapshot merges the stripes into one point-in-time StreamHist.
func (h *Histogram) Snapshot() *stats.StreamHist {
	out := &stats.StreamHist{}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		shard := s.h // copy under the lock, merge outside
		s.mu.Unlock()
		out.Merge(&shard)
	}
	return out
}
