package obs

import (
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
)

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("m_total", "help", func() float64 { return 1 }, L("rank", "0")...)
	r.CounterFunc("m_total", "help", func() float64 { return 5 }, L("rank", "0")...)
	r.CounterFunc("m_total", "help", func() float64 { return 7 }, L("rank", "1")...)
	h1 := r.Histogram("h_seconds", "help", L("rank", "0")...)
	if h2 := r.Histogram("h_seconds", "help", L("rank", "0")...); h1 != h2 {
		t.Fatalf("same (name, labels) returned distinct histograms")
	}
	if h3 := r.Histogram("h_seconds", "help", L("rank", "1")...); h1 == h3 {
		t.Fatalf("distinct labels returned the same histogram")
	}
	samples := r.Gather()
	if len(samples) != 4 {
		t.Fatalf("gathered %d samples, want 4", len(samples))
	}
	if samples[0].Value != 5 || samples[1].Value != 7 {
		t.Fatalf("values %v %v, want 5 7 (re-registration replaces the func)", samples[0].Value, samples[1].Value)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatalf("conflicting kind registration did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

func TestSampledInstruments(t *testing.T) {
	r := NewRegistry()
	var tally atomic.Int64
	r.CounterFunc("sampled_total", "reads an existing atomic", func() float64 {
		return float64(tally.Load())
	})
	tally.Store(42)
	s := r.Gather()
	if len(s) != 1 || s[0].Value != 42 {
		t.Fatalf("sampled counter = %+v, want 42", s)
	}
	tally.Store(99)
	if got := r.Gather()[0].Value; got != 99 {
		t.Fatalf("sampled counter did not track the atomic: %g", got)
	}
}

// TestRegistryConcurrency is the -race acceptance check: concurrent
// registration of every instrument kind, writers on the tallies behind
// them and concurrent gathers must be race-free and lose no counts.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		perW    = 2000
	)
	var tallies [2]atomic.Int64
	var wg, scrapers sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers run throughout.
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					WriteProm(&strings.Builder{}, r.Gather())
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers share one label set, half get their own —
			// exercises both same-instrument contention and concurrent
			// registration.
			tally := &tallies[w%2]
			rank := strconv.Itoa(w % 2)
			r.CounterFunc("conc_total", "", func() float64 { return float64(tally.Load()) }, L("rank", rank)...)
			r.GaugeFunc("conc_gauge", "", func() float64 { return float64(tally.Load() % 100) }, L("rank", rank)...)
			h := r.Histogram("conc_hist", "", L("rank", rank)...)
			for i := 0; i < perW; i++ {
				tally.Add(1)
				h.Observe(float64(i%100) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	var total float64
	var histN int64
	for _, s := range r.Gather() {
		switch s.Name {
		case "conc_total":
			total += s.Value
		case "conc_hist":
			histN += s.Hist.Count()
		}
	}
	if want := float64(workers * perW); total != want {
		t.Fatalf("counter lost updates: %g, want %g", total, want)
	}
	if want := int64(workers * perW); histN != want {
		t.Fatalf("histogram lost samples: %d, want %d", histN, want)
	}
}

func TestHistogramStripesMergeExactly(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count() != 4000 {
		t.Fatalf("count %d, want 4000", snap.Count())
	}
	if math.Abs(snap.Sum()-4*500500) > 1e-6 {
		t.Fatalf("sum %g, want %g", snap.Sum(), 4.0*500500)
	}
	if snap.Min() != 1 || snap.Max() != 1000 {
		t.Fatalf("min/max %g/%g", snap.Min(), snap.Max())
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("msgs_total", "messages sent", func() float64 { return 12 }, L("rank", "0")...)
	r.GaugeFunc("queue_depth", "", func() float64 { return 3.5 })
	h := r.Histogram("lat_seconds", "latency")
	for i := 0; i < 100; i++ {
		h.Observe(0.25)
	}
	var b strings.Builder
	if err := WriteProm(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE msgs_total counter",
		`msgs_total{rank="0"} 12`,
		"# TYPE queue_depth gauge",
		"queue_depth 3.5",
		"# TYPE lat_seconds summary",
		`lat_seconds{quantile="0.5"} 0.25`,
		"lat_seconds_sum 25",
		"lat_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCatalogCoversSpanTracks(t *testing.T) {
	// The catalog's span kinds fill exactly the timeline's tracks, as
	// chaos.SpanTrack groups them: `loadex list` prints each pair.
	tracks := map[string]bool{}
	for _, d := range SpanKinds() {
		tracks[chaos.SpanTrack(d.Name)] = true
	}
	want := []string{"compute", "decision", "job", "snapshot", "termdet"}
	if got := slices.Sorted(maps.Keys(tracks)); !slices.Equal(got, want) {
		t.Errorf("catalog span tracks %v, want %v", got, want)
	}
	if len(Catalog()) == 0 {
		t.Fatal("empty metric catalog")
	}
	seen := map[string]bool{}
	for _, m := range Catalog() {
		if seen[m.Name] {
			t.Errorf("duplicate catalog metric %s", m.Name)
		}
		seen[m.Name] = true
		if !strings.HasPrefix(m.Name, "loadex_") {
			t.Errorf("catalog metric %s missing loadex_ prefix", m.Name)
		}
	}
}
