// Package obs is the runtime-agnostic observability layer: a typed
// metrics registry that the runtimes, the net mesh, and the service
// register into; Prometheus text exposition plus pprof over an opt-in
// HTTP endpoint; and the trace→timeline reporter behind
// `loadex report`.
//
// The registry is built for hot paths: histograms are atomic log-linear
// bucket arrays with striped sums, and counters and gauges are sampled
// instruments (CounterFunc/GaugeFunc) that read existing atomic tallies
// at scrape time, so instrumented code pays nothing between scrapes.
package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Kind classifies an instrument for exposition.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name=value dimension of an instrument.
type Label struct {
	Name, Value string
}

// L builds a label list from alternating name, value pairs:
// obs.L("rank", "3", "mech", "snapshot").
func L(pairs ...string) []Label {
	if len(pairs)%2 != 0 {
		panic("obs.L: odd number of label arguments")
	}
	ls := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

// labelKey is the canonical (sorted) identity of a label set.
func labelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	s := append([]Label(nil), ls...)
	slices.SortFunc(s, func(a, b Label) int { return strings.Compare(a.Name, b.Name) })
	var b strings.Builder
	for i, l := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// series is one registered instrument.
type series struct {
	name   string
	help   string
	kind   Kind
	labels []Label
	// Exactly one of the following is set.
	hist *Histogram
	fn   func() float64 // sampled counter/gauge
}

// Registry holds instruments keyed by name + label set. Registration
// is idempotent: asking for an existing (name, labels) histogram
// returns the registered one, and registering a sampled instrument
// again replaces its func, so every layer can register without
// coordinating.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	order  []*series // registration order, for stable exposition
	frozen map[string]Kind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*series{}, frozen: map[string]Kind{}}
}

func (r *Registry) register(name, help string, kind Kind, labels []Label) *series {
	key := name + "{" + labelKey(labels) + "}"
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, s.kind))
		}
		return s
	}
	if k, ok := r.frozen[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %s registered with conflicting kinds %s and %s", name, k, kind))
	}
	r.frozen[name] = kind
	s := &series{name: name, help: help, kind: kind, labels: append([]Label(nil), labels...)}
	r.byKey[key] = s
	r.order = append(r.order, s)
	return s
}

// Histogram registers (or fetches) an owned streaming histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, KindHistogram, labels)
	if s.hist == nil {
		s.hist = NewHistogram()
	}
	return s.hist
}

// CounterFunc registers a sampled counter: fn is called at scrape time
// and must be monotonic (typically a closure over an existing atomic
// tally — that is how core.Counters, node frame counts and service
// totals register into the layer without restructuring).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, KindCounter, labels).fn = fn
}

// GaugeFunc registers a sampled gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, KindGauge, labels).fn = fn
}

// Sample is one scraped time-series value. Histograms carry the digest
// instead of Value.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	Value  float64
	Hist   *stats.StreamHist // histogram samples only
}

// Gather snapshots every instrument. Sampled funcs run at gather time;
// the registry lock is held, so funcs must not re-enter the registry.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.order))
	for _, s := range r.order {
		smp := Sample{Name: s.name, Help: s.help, Kind: s.kind, Labels: s.labels}
		if s.hist != nil {
			smp.Hist = s.hist.Snapshot()
		} else {
			smp.Value = s.fn()
		}
		out = append(out, smp)
	}
	return out
}
