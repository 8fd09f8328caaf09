package workload_test

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// fakePort is a scripted Port: one FIFO per class, served in class
// order as the Port contract requires, and a flag standing for a task
// that holds the rank.
type fakePort struct {
	q       [4][]workload.Msg // indexed by Class
	holding bool
}

func (p *fakePort) put(ms ...workload.Msg) {
	for _, m := range ms {
		p.q[m.Class] = append(p.q[m.Class], m)
	}
}

func (p *fakePort) Take(withData bool, m *workload.Msg) bool {
	for c := workload.ClassCtrl; c <= workload.ClassData; c++ {
		if c == workload.ClassData && !withData {
			break
		}
		if q := p.q[c]; len(q) > 0 {
			*m, p.q[c] = q[0], q[1:]
			return true
		}
	}
	return false
}

func (p *fakePort) Holding() bool { return p.holding }
func (p *fakePort) Resume() bool  { return false }

// State kinds the fake application reacts to, as start_snp/end_snp
// would.
const (
	kindBlock   = 1
	kindUnblock = 2
)

// fakeApp logs every callback into the shared log. TryStart starts a
// task (holding the port) while starts lasts; with blockOnStart it
// instead opens a snapshot, as an Acquire broadcast does.
type fakeApp struct {
	log          *[]string
	port         *fakePort
	blocked      bool
	starts       int
	blockOnStart bool
}

func (a *fakeApp) Attach(workload.AppHost) error                   { return nil }
func (a *fakeApp) Done() bool                                      { return true }
func (a *fakeApp) Outcome(*workload.AppReport) workload.AppOutcome { return workload.AppOutcome{} }
func (a *fakeApp) Blocked(int) bool                                { return a.blocked }

func (a *fakeApp) HandleState(rank, from, kind int, payload any) {
	*a.log = append(*a.log, fmt.Sprintf("state:%d", kind))
	switch kind {
	case kindBlock:
		a.blocked = true
	case kindUnblock:
		a.blocked = false
	}
}

func (a *fakeApp) HandleData(rank, from int, m workload.DataMsg) {
	*a.log = append(*a.log, fmt.Sprintf("data:%d", m.Kind))
}

func (a *fakeApp) TryStart(int) bool {
	switch {
	case a.starts > 0:
		a.starts--
		a.port.holding = true
		*a.log = append(*a.log, "start")
		return true
	case a.blockOnStart:
		a.blockOnStart, a.blocked = false, true
	}
	*a.log = append(*a.log, "try")
	return false
}

// fakeDet logs the loop's detector calls.
type fakeDet struct{ log *[]string }

func (d fakeDet) Name() string                   { return "fake" }
func (d fakeDet) OnSend(termdet.Context, int)    {}
func (d fakeDet) OnReceive(termdet.Context, int) { *d.log = append(*d.log, "receive") }
func (d fakeDet) Passive(termdet.Context)        { *d.log = append(*d.log, "passive") }
func (d fakeDet) Terminated() bool               { return false }
func (d fakeDet) OnCtrl(_ termdet.Context, _ int, c termdet.Ctrl) {
	*d.log = append(*d.log, "ctrl")
}

// rig is one rank's loop over a fake port, app and detector, on a clock
// the test sets, optionally traced.
type rig struct {
	log  []string
	now  float64
	port *fakePort
	app  *fakeApp
	busy *workload.BusyMeter
	loop *workload.Loop
}

func newRig(rec *chaos.Recorder) *rig {
	r := &rig{port: &fakePort{}}
	r.app = &fakeApp{log: &r.log, port: r.port}
	now := func() float64 { return r.now }
	r.busy = &workload.BusyMeter{Now: now, Rec: rec}
	r.loop = &workload.Loop{App: r.app, Det: fakeDet{&r.log}, Now: now, Rec: rec, Busy: r.busy}
	return r
}

// step runs one Step at time t and returns what it logged.
func (r *rig) step(t float64) []string {
	r.now, r.log = t, nil
	r.loop.Step(r.port)
	return r.log
}

func ctrl() workload.Msg       { return workload.Msg{Class: workload.ClassCtrl} }
func state(k int) workload.Msg { return workload.Msg{Class: workload.ClassState, Kind: k} }
func data(k int32) workload.Msg {
	return workload.Msg{Class: workload.ClassData, Data: workload.DataMsg{Kind: k}}
}

func expectLog(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: loop did %v, want %v", what, got, want)
	}
}

// TestLoopClassOrder: control frames before state before data, all of
// them before a task is tried, and passivity only once nothing starts.
func TestLoopClassOrder(t *testing.T) {
	r := newRig(nil)
	r.port.put(data(1), state(0), ctrl(), data(2), state(3))
	expectLog(t, "mixed queue", r.step(0),
		"ctrl", "state:0", "state:3", "receive", "data:1", "receive", "data:2", "try", "passive")
}

// TestLoopBlockedWithholdsData: a Blocked rank treats control frames
// and state messages but no data, tries no task and is not passive;
// the state message that unblocks it releases the data.
func TestLoopBlockedWithholdsData(t *testing.T) {
	r := newRig(nil)
	r.app.blocked = true
	r.port.put(data(1), state(0), ctrl())
	expectLog(t, "blocked", r.step(0), "ctrl", "state:0")
	r.port.put(state(kindUnblock))
	expectLog(t, "unblocked", r.step(1), "state:2", "receive", "data:1", "try", "passive")
}

// TestLoopNoPassiveWhileBlockedOrStarted: a TryStart that opens a
// snapshot leaves the rank blocked, not passive; one that starts a task
// hands the rank to it.
func TestLoopNoPassiveWhileBlockedOrStarted(t *testing.T) {
	r := newRig(nil)
	r.app.blockOnStart = true
	expectLog(t, "snapshot opened by TryStart", r.step(0), "try")
	r.port.put(state(kindUnblock))
	r.app.starts = 1
	expectLog(t, "task started", r.step(1), "state:2", "start")
	r.port.put(ctrl(), data(1))
	expectLog(t, "task holds the rank", r.step(2))
	r.port.holding = false
	expectLog(t, "task done", r.step(3), "ctrl", "receive", "data:1", "try", "passive")
}

// spans returns the [begin, end] pairs of one span kind in a trace.
func spans(t *testing.T, rec *chaos.Recorder, path, kind string) [][2]float64 {
	t.Helper()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := chaos.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begins := map[int64]float64{}
	var out [][2]float64
	for _, e := range events {
		if e.Span != kind {
			continue
		}
		switch e.Ev {
		case chaos.EvSpanBegin:
			begins[e.Sid] = e.T
		case chaos.EvSpanEnd:
			out = append(out, [2]float64{begins[e.Sid], e.T})
		}
	}
	return out
}

func openRec(t *testing.T) (*chaos.Recorder, string) {
	path := filepath.Join(t.TempDir(), "rank.jsonl")
	rec, err := chaos.OpenRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	return rec, path
}

// TestLoopIdleSpan: termdet.idle opens when the rank declares itself
// passive and closes only on a data receipt or a task start — control
// frames and state messages leave a passive rank passive.
func TestLoopIdleSpan(t *testing.T) {
	rec, path := openRec(t)
	r := newRig(rec)
	r.step(1) // passive: the span opens
	r.port.put(ctrl(), state(0))
	r.step(2)
	r.port.put(data(1)) // active again, then passive anew
	r.step(3)
	r.app.starts = 1
	r.step(4)
	r.loop.EndSpans()
	got := spans(t, rec, path, "termdet.idle")
	if want := [][2]float64{{1, 3}, {3, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("termdet.idle spans %v, want %v", got, want)
	}
}

// TestLoopBusySpansMatchMeter: every Blocked interval — opened by a
// state message or by TryStart — is one snapshot.round span, and the
// spans sum to the metered busy time.
func TestLoopBusySpansMatchMeter(t *testing.T) {
	rec, path := openRec(t)
	r := newRig(rec)
	script := []struct {
		t float64
		m workload.Msg
	}{
		{0.1, state(kindBlock)}, {0.35, state(0)}, {0.7, state(kindUnblock)},
		{1.3, state(kindBlock)}, {1.45, ctrl()}, {2.05, state(kindUnblock)},
		{3.3, state(kindUnblock)},
	}
	for _, s := range script {
		r.port.put(s.m)
		r.step(s.t)
	}
	r.app.blockOnStart = true // an Acquire from TryStart
	r.step(4.2)
	r.port.put(state(kindUnblock))
	r.step(4.9)
	r.loop.EndSpans()
	got := spans(t, rec, path, "snapshot.round")
	want := [][2]float64{{0.1, 0.7}, {1.3, 2.05}, {4.2, 4.9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot.round spans %v, want %v", got, want)
	}
	sum := 0.0
	for _, s := range got {
		sum += s[1] - s[0]
	}
	if math.Abs(sum-r.busy.Seconds()) > 1e-9 {
		t.Errorf("spans sum to %.12g s, meter reads %.12g s", sum, r.busy.Seconds())
	}
}

// TestDriverSecondComputePanics: a rank runs one task at a time, and
// the panic names the rank.
func TestDriverSecondComputePanics(t *testing.T) {
	d, err := workload.NewDriver(workload.Loop{Rank: 3}, nil, nil, workload.AppRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Compute(1, func() {})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "rank 3") {
			t.Errorf("second Compute: panic %q, want one naming rank 3", msg)
		}
	}()
	d.Compute(1, func() {})
}
