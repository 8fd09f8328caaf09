package sim

import (
	"testing"

	"repro/internal/termdet"
	"repro/internal/workload"
)

// scriptApp is a configurable application for runtime tests.
type scriptApp struct {
	appStub
	stateLog []int // kinds of treated state messages
	dataLog  []int
	order    []string // interleaved log: "state", "data", "task"
	tasks    []Duration
	next     int
	blocked  map[int]bool
	onState  func(rank, kind int)
	onDone   func(p *Proc)
}

func (a *scriptApp) HandleState(rank, from, kind int, payload any) {
	a.stateLog = append(a.stateLog, kind)
	a.order = append(a.order, "state")
	if a.onState != nil {
		a.onState(rank, kind)
	}
}
func (a *scriptApp) HandleData(rank, from int, m workload.DataMsg) {
	a.dataLog = append(a.dataLog, int(m.Kind))
	a.order = append(a.order, "data")
}
func (a *scriptApp) TryStart(rank int) bool { return false }
func (a *scriptApp) Blocked(rank int) bool  { return a.blocked[rank] }

// appStub completes workload.App for the applications these tests host
// directly on a Runtime.
type appStub struct{}

func (appStub) Attach(workload.AppHost) error                   { return nil }
func (appStub) Done() bool                                      { return true }
func (appStub) Outcome(*workload.AppReport) workload.AppOutcome { return workload.AppOutcome{} }

// loops is the tests' Runtime App: one workload.Loop per rank of a test
// application.
type loops []workload.Loop

func (ls loops) Step(p *Proc)      { ls[p.ID].Step(p) }
func (ls loops) Poll(p *Proc) bool { return ls[p.ID].Poll(p) }

func newLoops(eng *Engine, n int, app workload.App) loops {
	now := func() float64 { return float64(eng.Now()) }
	ls := make(loops, n)
	for r := range ls {
		ls[r] = workload.Loop{Rank: r, App: app, Det: quietDet{}, Now: now,
			Busy: &workload.BusyMeter{Now: now, Rank: r}}
	}
	return ls
}

// quietDet is a termination detector that never fires: these tests
// exercise the runtime's event mechanics, not quiescence.
type quietDet struct{}

func (quietDet) Name() string                              { return "quiet" }
func (quietDet) OnSend(termdet.Context, int)               {}
func (quietDet) OnReceive(termdet.Context, int)            {}
func (quietDet) OnCtrl(termdet.Context, int, termdet.Ctrl) {}
func (quietDet) Passive(termdet.Context)                   {}
func (quietDet) Terminated() bool                          { return false }

func newTestRuntime(n int, app workload.App) *Runtime {
	eng := NewEngine()
	eng.MaxSteps = 1_000_000
	return NewRuntime(eng, n, NetworkConfig{Latency: 1 * Microsecond}, newLoops(eng, n, app))
}

func TestRuntimeStatePriorityOverData(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(2, app)
	// Deliver one data then one state message at the same instant; the
	// loop must treat state first (Algorithm 1).
	rt.Eng.At(1, func() {
		p := rt.Procs[1]
		p.dataQ.push(&Message{Kind: 1, Channel: DataChannel})
		p.stateQ.push(&Message{Kind: 2, Channel: StateChannel})
		rt.Wake(1)
	})
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(app.order) != 2 || app.order[0] != "state" || app.order[1] != "data" {
		t.Fatalf("treatment order = %v, want state before data", app.order)
	}
}

func TestRuntimeSingleThreadedDefersMessagesDuringCompute(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(2, app)
	var treatedAt Time
	app.onState = func(rank, kind int) { treatedAt = rt.Now() }

	rt.Eng.At(0, func() {
		rt.Compute(rt.Procs[1], 10, nil) // busy until t=10
	})
	rt.Eng.At(1, func() {
		rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 5})
	})
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if treatedAt != 10 {
		t.Fatalf("state message treated at %v, want 10 (after compute)", treatedAt)
	}
}

func TestRuntimeThreadedTreatsStateDuringCompute(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(2, app)
	rt.Threaded = true
	rt.PollPeriod = 50 * Microsecond
	var treatedAt Time
	app.onState = func(rank, kind int) { treatedAt = rt.Now() }

	rt.Eng.At(0, func() { rt.Compute(rt.Procs[1], 1, nil) }) // busy until t=1s
	rt.Eng.At(100*Microsecond, func() {
		rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 5})
	})
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if treatedAt <= 100*Microsecond || treatedAt >= 1 {
		t.Fatalf("state message treated at %v, want during compute at a poll tick", treatedAt)
	}
	// Must land on the 50µs grid.
	k := float64(treatedAt) / float64(50*Microsecond)
	if diff := k - float64(int64(k+0.5)); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("poll tick %v not on 50µs grid", treatedAt)
	}
}

func TestRuntimeThreadedPausesComputeWhileBlocked(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(2, app)
	rt.Threaded = true
	// The state handler blocks the process on kind=1 and unblocks on 2,
	// mimicking start_snp / end_snp.
	app.onState = func(rank, kind int) {
		switch kind {
		case 1:
			app.blocked[rank] = true
		case 2:
			app.blocked[rank] = false
		}
	}
	var doneAt Time
	rt.Eng.At(0, func() {
		rt.Compute(rt.Procs[1], 1, func() { doneAt = rt.Now() })
	})
	// Block from ~0.2 to ~0.5: task should finish ~0.3s late.
	rt.Eng.At(0.2, func() { rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 1}) })
	rt.Eng.At(0.5, func() { rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 2}) })
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt < 1.29 || doneAt > 1.31 {
		t.Fatalf("task completed at %v, want ≈1.3 (paused ~0.3s)", doneAt)
	}
	if p := rt.Procs[1].PausedTime(); p < 0.29 || p > 0.31 {
		t.Fatalf("paused time %v, want ≈0.3", p)
	}
}

func TestRuntimeBlockedProcessStillTreatsState(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{1: true}}
	rt := newTestRuntime(2, app)
	unblockedAt := Time(-1)
	app.onState = func(rank, kind int) {
		if kind == 2 {
			app.blocked[rank] = false
			unblockedAt = rt.Now()
		}
	}
	// A data message must NOT be treated while blocked; after unblocking
	// it must be.
	rt.Eng.At(1, func() { rt.Net.Send(&Message{From: 0, To: 1, Channel: DataChannel, Kind: 9}) })
	rt.Eng.At(2, func() { rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 2}) })
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if unblockedAt < 2 {
		t.Fatalf("unblocked at %v", unblockedAt)
	}
	if len(app.dataLog) != 1 {
		t.Fatalf("data message not treated after unblock: %v", app.dataLog)
	}
	if len(app.order) >= 2 && app.order[0] == "data" {
		t.Fatal("data message treated while blocked")
	}
}

func TestRuntimeComputeWhileBusyPanics(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(1, app)
	rt.Eng.At(0, func() {
		rt.Compute(rt.Procs[0], 5, nil)
		defer func() {
			if recover() == nil {
				t.Error("double Compute did not panic")
			}
		}()
		rt.Compute(rt.Procs[0], 5, nil)
	})
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// taskApp starts a fixed list of tasks one after another.
type taskApp struct {
	scriptApp
	rt        *Runtime
	durations []Duration
	started   int
	completed int
}

func (a *taskApp) TryStart(rank int) bool {
	if a.started >= len(a.durations) {
		return false
	}
	d := a.durations[a.started]
	a.started++
	a.rt.Compute(a.rt.Procs[rank], d, func() { a.completed++ })
	return true
}

func TestRuntimeRunsTasksBackToBack(t *testing.T) {
	app := &taskApp{scriptApp: scriptApp{blocked: map[int]bool{}}, durations: []Duration{1, 2, 3}}
	rt := newTestRuntime(1, app)
	app.rt = rt
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if app.completed != 3 {
		t.Fatalf("completed %d tasks, want 3", app.completed)
	}
	if rt.Now() != 6 {
		t.Fatalf("finished at %v, want 6", rt.Now())
	}
	if ct := rt.Procs[0].ComputeTime(); ct != 6 {
		t.Fatalf("compute time %v, want 6", ct)
	}
}

func TestRuntimeDeterminism(t *testing.T) {
	run := func() (Time, []int) {
		app := &scriptApp{blocked: map[int]bool{}}
		rt := newTestRuntime(4, app)
		for i := 0; i < 20; i++ {
			i := i
			rt.Eng.At(Time(i)*Millisecond, func() {
				rt.Net.Send(&Message{From: i % 4, To: (i + 1) % 4, Channel: StateChannel, Kind: i})
			})
		}
		rt.Start()
		if err := rt.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.Now(), app.stateLog
	}
	t1, log1 := run()
	t2, log2 := run()
	if t1 != t2 || len(log1) != len(log2) {
		t.Fatal("nondeterministic run")
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatal("nondeterministic message treatment order")
		}
	}
}

func TestRuntimePollCoalescing(t *testing.T) {
	// Many state arrivals during one poll interval produce a single
	// batched treatment at the next tick.
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(2, app)
	rt.Threaded = true
	rt.PollPeriod = 100 * Microsecond
	var treatTimes []Time
	app.onState = func(rank, kind int) { treatTimes = append(treatTimes, rt.Now()) }
	rt.Eng.At(0, func() { rt.Compute(rt.Procs[1], 1, nil) })
	for i := 0; i < 5; i++ {
		i := i
		rt.Eng.At(Time(10+i)*Microsecond, func() {
			rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: i})
		})
	}
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(treatTimes) != 5 {
		t.Fatalf("treated %d messages, want 5", len(treatTimes))
	}
	for _, at := range treatTimes {
		if at != treatTimes[0] {
			t.Fatalf("messages not batched at one tick: %v", treatTimes)
		}
	}
}

func TestRuntimeThreadedIdleTreatsImmediately(t *testing.T) {
	// When the process is idle, state messages are treated on arrival
	// even in threaded mode (a blocking receive, not a poll).
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(2, app)
	rt.Threaded = true
	rt.PollPeriod = 10 * Millisecond
	var treatedAt Time
	app.onState = func(rank, kind int) { treatedAt = rt.Now() }
	rt.Eng.At(1*Microsecond, func() {
		rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 1})
	})
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Network latency is 1µs: arrival at 2µs, treated right there, far
	// before the 10ms poll tick.
	if treatedAt >= 10*Millisecond {
		t.Fatalf("idle threaded treatment waited for a poll tick: %v", treatedAt)
	}
}

func TestQueueCompaction(t *testing.T) {
	var q queue
	for i := 0; i < 500; i++ {
		q.push(&Message{Kind: i})
	}
	// pop copies the head out before dropping it: the pointer peek
	// returns dies with the drop.
	pop := func() entry {
		e := *q.peek()
		q.drop()
		return e
	}
	for i := 0; i < 400; i++ {
		if e := pop(); int(e.kind) != i {
			t.Fatalf("FIFO broken at %d", i)
		}
	}
	if q.len() != 100 {
		t.Fatalf("len = %d, want 100", q.len())
	}
	if len(q.items) > 2*q.len()+64 {
		t.Fatalf("no compaction: %d items resident for %d queued", len(q.items), q.len())
	}
	for i := 400; i < 500; i++ {
		if e := pop(); int(e.kind) != i {
			t.Fatalf("order lost after compaction at %d", i)
		}
	}
	if q.peek() != nil {
		t.Fatal("empty queue returned a message")
	}
}

func TestRuntimeComputeTimeExcludesPauses(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(2, app)
	rt.Threaded = true
	app.onState = func(rank, kind int) {
		app.blocked[rank] = kind == 1
	}
	rt.Eng.At(0, func() { rt.Compute(rt.Procs[1], 1, nil) })
	rt.Eng.At(0.2, func() { rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 1}) })
	rt.Eng.At(0.7, func() { rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 2}) })
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	ct := rt.Procs[1].ComputeTime()
	if ct < 0.99 || ct > 1.01 {
		t.Fatalf("compute time %v, want ≈1 (pause excluded)", ct)
	}
}

func TestRuntimeNegativeComputePanics(t *testing.T) {
	app := &scriptApp{blocked: map[int]bool{}}
	rt := newTestRuntime(1, app)
	rt.Eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("negative duration accepted")
			}
		}()
		rt.Compute(rt.Procs[0], -1, nil)
	})
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}
