package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/chaos"
	"repro/internal/stats"
)

// The trace→timeline reporter behind `loadex report`: pairs span
// begin/end events (and start/done compute events) from one recorded
// run into Chrome trace_event JSON — loadable in chrome://tracing or
// Perfetto — plus a markdown latency-breakdown table.

// TraceEvent is one Chrome trace_event record. Complete spans use
// Ph "X" with Ts/Dur in microseconds; metadata rows use Ph "M".
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// SpanStat is one row of the latency breakdown: all completed spans of
// one kind across the run.
type SpanStat struct {
	Kind    string            `json:"kind"`
	Count   int64             `json:"count"`
	TotalS  float64           `json:"total_s"`
	Summary stats.HistSummary `json:"summary"`
}

// Timeline is a rendered run.
type Timeline struct {
	Events    []TraceEvent `json:"traceEvents"`
	Breakdown []SpanStat   `json:"-"`
	// Spans counts completed (begin+end matched) spans; Unmatched
	// counts begins that never ended — nonzero means a truncated
	// trace or an emitter bug (`loadex validate` pinpoints which).
	Spans     int `json:"-"`
	Unmatched int `json:"-"`
}

type openSpan struct {
	span string
	t    float64
}

// BuildTimeline pairs one run's trace events into a timeline.
// Timestamps are per-rank seconds since that rank's run start; forked
// ranks therefore skew by fork spread, which the viewer shows as
// slightly offset track origins (spans stay internally exact).
func BuildTimeline(events []chaos.Event) *Timeline {
	tl := &Timeline{}
	byKind := map[string]*stats.StreamHist{}
	open := map[int]map[int64]openSpan{} // rank → sid → begin
	computeOpen := map[int][]float64{}   // rank → stack of start times
	ranks := map[int]bool{}
	tracks := map[string]bool{}

	emit := func(rank int, kind string, begin, end float64) {
		if end < begin {
			end = begin
		}
		track := chaos.SpanTrack(kind)
		tracks[track] = true
		ranks[rank] = true
		tl.Events = append(tl.Events, TraceEvent{
			Name: kind, Ph: "X", Cat: track,
			Ts: begin * 1e6, Dur: (end - begin) * 1e6,
			Pid: rank, Tid: 0, // tid assigned per track below
		})
		h := byKind[kind]
		if h == nil {
			h = &stats.StreamHist{}
			byKind[kind] = h
		}
		h.Add(end - begin)
		tl.Spans++
	}

	for _, e := range events {
		switch e.Ev {
		case chaos.EvSpanBegin:
			if open[e.Rank] == nil {
				open[e.Rank] = map[int64]openSpan{}
			}
			open[e.Rank][e.Sid] = openSpan{span: e.Span, t: e.T}
		case chaos.EvSpanEnd:
			if b, ok := open[e.Rank][e.Sid]; ok {
				delete(open[e.Rank], e.Sid)
				emit(e.Rank, b.span, b.t, e.T)
			} else {
				tl.Unmatched++
			}
		case chaos.EvStart:
			if e.T > 0 {
				computeOpen[e.Rank] = append(computeOpen[e.Rank], e.T)
			}
		case chaos.EvDone:
			if st := computeOpen[e.Rank]; len(st) > 0 {
				begin := st[len(st)-1]
				computeOpen[e.Rank] = st[:len(st)-1]
				emit(e.Rank, "compute", begin, e.T)
			}
		}
	}
	for _, m := range open {
		tl.Unmatched += len(m)
	}

	// Stable thread ids per track, plus viewer metadata naming every
	// rank's process and every track's thread row.
	trackNames := slices.Sorted(maps.Keys(tracks))
	tid := map[string]int{}
	for i, t := range trackNames {
		tid[t] = i
	}
	for i := range tl.Events {
		tl.Events[i].Tid = tid[tl.Events[i].Cat]
	}
	var meta []TraceEvent
	for _, rk := range slices.Sorted(maps.Keys(ranks)) {
		meta = append(meta, TraceEvent{
			Name: "process_name", Ph: "M", Pid: rk,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rk)},
		})
		for _, t := range trackNames {
			meta = append(meta, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: rk, Tid: tid[t],
				Args: map[string]any{"name": t},
			})
		}
	}
	tl.Events = append(meta, tl.Events...)

	for _, kind := range slices.Sorted(maps.Keys(byKind)) {
		h := byKind[kind]
		tl.Breakdown = append(tl.Breakdown, SpanStat{
			Kind: kind, Count: h.Count(), TotalS: h.Sum(), Summary: h.Summary(),
		})
	}
	return tl
}

// SpanTotal returns the summed duration of all completed spans of one
// kind — the quantity the end-to-end acceptance test compares against
// the run's decision-latency counter.
func (tl *Timeline) SpanTotal(kind string) float64 {
	for _, s := range tl.Breakdown {
		if s.Kind == kind {
			return s.TotalS
		}
	}
	return 0
}

// WriteChrome writes the Chrome trace_event JSON object form.
func (tl *Timeline) WriteChrome(w io.Writer) error {
	doc := struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{tl.Events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteMarkdown writes the latency-breakdown table.
func (tl *Timeline) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "| span | count | total (s) | mean (s) | p50 (s) | p95 (s) | p99 (s) | max (s) |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, s := range tl.Breakdown {
		fmt.Fprintf(w, "| %s | %d | %.6f | %.6f | %.6f | %.6f | %.6f | %.6f |\n",
			s.Kind, s.Count, s.TotalS, s.Summary.Mean, s.Summary.P50, s.Summary.P95, s.Summary.P99, s.Summary.Max)
	}
	if tl.Unmatched > 0 {
		fmt.Fprintf(w, "\n%d span(s) never closed (truncated trace?)\n", tl.Unmatched)
	}
}
