package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Event kinds recorded in trace files. One JSONL line per event.
const (
	// EvMeta opens a trace: run shape (cluster size, scenario,
	// mechanism, term protocol, chaos plan) for the validator's context.
	EvMeta = "meta"
	// EvSend / EvRecv bracket one application-level message: the sender
	// records EvSend before handing the message to the transport, the
	// receiver records EvRecv before processing it. The payload fields
	// (Kind, Node, Count, Work, Size, Spin) identify the message for
	// conservation matching.
	EvSend = "send"
	EvRecv = "recv"
	// EvStart / EvDone bracket one compute interval on a rank.
	EvStart = "start"
	EvDone  = "done"
	// EvDecide is one committed dynamic decision: the view it was taken
	// on (workload metric per rank), the selected slaves, the work
	// distributed.
	EvDecide = "decide"
	// EvState is one outbound state-channel message (sender side only —
	// state traffic has no receive-side record, so it stays out of the
	// send/recv conservation multisets). The validator counts them.
	EvState = "state"
	// EvFinal closes a rank's trace: the rank reached quiescence and
	// reports its completed-item count and, when the run ended with
	// every message delivered, its final view (workload metric per
	// rank). A rank with no final crashed or lost its trace.
	EvFinal = "final"
	// EvSpanBegin / EvSpanEnd bracket one named duration on a rank
	// (decision acquire→plan→transfer, snapshot round, termdet idle,
	// job admit→complete). Span names the kind, Sid pairs the two
	// events, T stamps them; `loadex report` renders the pairs as a
	// timeline and `loadex validate` checks balance and per-track
	// nesting.
	EvSpanBegin = "sb"
	EvSpanEnd   = "se"
)

// Event is one trace record. Only the fields meaningful for its Ev kind
// are set; everything else stays at its JSON-omitted zero value.
type Event struct {
	Ev   string `json:"ev"`
	Rank int    `json:"rank"`

	// T is the event's timestamp in seconds since the recording
	// rank's run start (virtual time on the sim runtime). Span events
	// always carry it; compute start/done events carry it when the
	// emitting host has a clock. Forked ranks start their clocks at
	// fork, so cross-rank comparison skews by the fork spread.
	T float64 `json:"t,omitempty"`
	// Span names the span kind and Sid pairs a begin with its end
	// within one rank's trace (EvSpanBegin/EvSpanEnd).
	Span string `json:"span,omitempty"`
	Sid  int64  `json:"sid,omitempty"`

	// Peer is the destination (EvSend) or source (EvRecv) rank.
	Peer int `json:"peer,omitempty"`
	// Message payload identity (EvSend/EvRecv).
	Kind  int32   `json:"kind,omitempty"`
	Node  int32   `json:"node,omitempty"`
	Count int32   `json:"count,omitempty"`
	Work  float64 `json:"work,omitempty"`
	Size  float64 `json:"size,omitempty"`
	Spin  float64 `json:"spin,omitempty"`

	// Decision fields (EvDecide). View is also the rank's final view
	// on EvFinal.
	View   []float64 `json:"view,omitempty"`
	Sel    []int     `json:"sel,omitempty"`
	Slaves int       `json:"slaves,omitempty"`

	// Run shape (EvMeta) and quiescence summary (EvFinal).
	N        int    `json:"n,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Mech     string `json:"mech,omitempty"`
	Term     string `json:"term,omitempty"`
	Plan     string `json:"plan,omitempty"`
	Executed int64  `json:"executed,omitempty"`
	// Threshold is the maintaining mechanisms' update threshold in
	// workload units (EvMeta): how far a load may drift before its
	// owner publishes it.
	Threshold float64 `json:"threshold,omitempty"`
}

// key is the payload identity used for send/recv conservation matching:
// two events describe the same message iff their keys are equal.
func (e Event) key() string {
	return fmt.Sprintf("k%d/n%d/c%d/w%.9g/s%.9g/sp%.9g",
		e.Kind, e.Node, e.Count, e.Work, e.Size, e.Spin)
}

// Recorder appends events to one JSONL trace file. Safe for concurrent
// use; a nil *Recorder discards everything, so call sites need no
// tracing-enabled branches.
type Recorder struct {
	mu  sync.Mutex
	f   *os.File
	buf *bufio.Writer
	enc *json.Encoder
	sid atomic.Int64
}

// OpenRecorder creates (or truncates) a JSONL trace file, creating the
// parent directory as needed.
func OpenRecorder(path string) (*Recorder, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	buf := bufio.NewWriter(f)
	return &Recorder{f: f, buf: buf, enc: json.NewEncoder(buf)}, nil
}

// Record appends one event. Encoding errors surface at Close.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.enc.Encode(e)
	r.mu.Unlock()
}

// SpanBegin records the start of one named duration at local time t
// (seconds since the rank's run start) and returns the span id to
// close it with. A nil recorder returns 0, which SpanEnd ignores — so
// span emission needs no tracing-enabled branches either.
func (r *Recorder) SpanBegin(rank int, span string, t float64) int64 {
	if r == nil {
		return 0
	}
	sid := r.sid.Add(1)
	r.Record(Event{Ev: EvSpanBegin, Rank: rank, Span: span, Sid: sid, T: t})
	return sid
}

// SpanEnd closes a span opened by SpanBegin at local time t.
func (r *Recorder) SpanEnd(rank int, span string, sid int64, t float64) {
	if r == nil || sid == 0 {
		return
	}
	r.Record(Event{Ev: EvSpanEnd, Rank: rank, Span: span, Sid: sid, T: t})
}

// Close flushes and closes the trace file.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ferr := r.buf.Flush()
	if err := r.f.Close(); err != nil {
		return err
	}
	return ferr
}

// ReadFile parses one JSONL trace file.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// ReadDir parses every *.jsonl trace file directly inside dir (one
// run's worth — per-rank files), in sorted name order. Runs in
// subdirectories are separate validation units; find them with
// TraceDirs.
func ReadDir(dir string) ([]Event, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("chaos: no *.jsonl trace files in %s", dir)
	}
	sort.Strings(matches)
	var events []Event
	for _, p := range matches {
		evs, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		events = append(events, evs...)
	}
	return events, nil
}

// TraceDirs walks root and returns every directory that directly
// contains at least one *.jsonl trace file — one entry per recorded
// run, sorted. A fan-out cluster run records each scenario×mechanism
// cell into its own subdirectory; each is validated on its own.
func TraceDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".jsonl" {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dirs []string
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
