package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation (epoch, table cell, job) share op.
type span struct {
	name       string
	id, parent int32 // parent 0 = root
	op         int32
	lane       int32 // the goroutine-like track it is drawn on
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so call sites need no tracing-enabled branches and untraced
// runs record no spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when not tracing).
func (t *tracer) begin(name string, parent int32, op, lane int) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: int32(op), lane: int32(lane), start: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int32) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.end = now
	d := s.end - s.start
	t.mu.Unlock()
	return float64(d) / 1e9
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// total sums the durations of the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for i := range t.spans {
		if t.spans[i].name == name {
			ns += t.spans[i].end - t.spans[i].start
		}
	}
	return float64(ns) / 1e9
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events; load the file in chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			s.name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
	}
	t.mu.Unlock()
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
