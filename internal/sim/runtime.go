package sim

import "fmt"

// App is the application executed by every process. The Runtime drives the
// main loop of the paper's Algorithm 1; the App supplies the three
// behaviours the loop dispatches to, plus the Blocked predicate that lets a
// load-exchange mechanism suspend a process (snapshot participation).
//
// Handlers run in event context and must not block; long-running work is
// expressed by calling Runtime.Compute. The *Message a handler receives
// points into the rank's queue storage, which the runtime reuses: it is
// valid only during the call, and a handler that needs the message (or
// its Payload) later copies it.
type App interface {
	// HandleState treats one state-information message (Algorithm 1,
	// line 3): load updates, increments, snapshot protocol messages.
	HandleState(p *Proc, m *Message)
	// HandleData treats one other message (Algorithm 1, line 5): tasks,
	// contribution blocks.
	HandleData(p *Proc, m *Message)
	// TryStart attempts to start a new local ready task (Algorithm 1,
	// line 7), typically by calling Runtime.Compute, possibly after a
	// dynamic slave selection. It returns false if no task can start.
	TryStart(p *Proc) bool
	// Blocked reports whether the process must not treat data messages or
	// start tasks (it is participating in a snapshot, §3). State messages
	// are still delivered while blocked.
	Blocked(p *Proc) bool
}

// CtrlApp is the optional control-channel extension of App: hosts of
// the application port implement it to receive termination-detection
// control frames (internal/termdet), which are treated with the highest
// priority and bypass Blocked gating — a snapshot-blocked process still
// acknowledges and forwards. Apps that do not implement it never see
// CtrlChannel traffic.
type CtrlApp interface {
	// HandleCtrl treats one control frame; like App's handlers it may
	// use m only during the call.
	HandleCtrl(p *Proc, m *Message)
}

// Runtime owns the processes and drives the Algorithm 1 loop on each.
//
// Threading model: with Threaded=false a process treats no message while a
// task computes (the paper's base assumption, §1: "a process cannot treat a
// message and compute simultaneously"). With Threaded=true, a helper thread
// wakes every PollPeriod and treats all pending state-information messages;
// if the application becomes Blocked (snapshot started) the running task is
// paused and resumed when the application unblocks (§4.5).
type Runtime struct {
	Eng      *Engine
	Net      *Network
	Procs    []*Proc
	app      App
	ctrlApp  CtrlApp // non-nil when app implements CtrlApp
	Threaded bool
	// PollPeriod is the helper-thread sleep period (paper: 50 µs).
	PollPeriod Duration
}

// NewRuntime creates a runtime with n processes running app.
func NewRuntime(eng *Engine, n int, cfg NetworkConfig, app App) *Runtime {
	rt := &Runtime{
		Eng:        eng,
		app:        app,
		PollPeriod: 50 * Microsecond,
	}
	rt.ctrlApp, _ = app.(CtrlApp)
	rt.Net = NewNetwork(eng, n, cfg, rt.arrive)
	rt.Procs = make([]*Proc, n)
	for i := range rt.Procs {
		p := &Proc{ID: i}
		// The engine callbacks of p are built once here: scheduling a
		// wake, poll tick or completion on the hot path reuses these
		// closures instead of allocating a capture per event.
		p.wakeFn = func() {
			p.wakePending = false
			rt.step(p)
		}
		p.pollFn = func() {
			p.pollPending = false
			rt.pollTick(p)
		}
		p.completeFn = func() { rt.completeTask(p) }
		rt.Procs[i] = p
	}
	return rt
}

// Start schedules the first main-loop iteration of every process at t=0.
func (rt *Runtime) Start() {
	for _, p := range rt.Procs {
		rt.wake(p)
	}
}

// Send transmits a message on behalf of the application.
func (rt *Runtime) Send(m *Message) { rt.Net.Send(m) }

// Broadcast sends template to every other rank.
func (rt *Runtime) Broadcast(from int, template Message) int {
	return rt.Net.Broadcast(from, template)
}

// Compute starts a task of the given duration on p; onDone runs at
// completion (in event context), after which the main loop resumes. It
// panics if p is already busy: the model is strictly one task at a time.
func (rt *Runtime) Compute(p *Proc, d Duration, onDone func()) {
	if p.busy {
		panic(fmt.Sprintf("sim: process %d started a task while busy", p.ID))
	}
	if d < 0 {
		panic("sim: negative compute duration")
	}
	p.busy = true
	p.paused = false
	p.state = Computing
	p.remaining = d
	p.startedAt = rt.Eng.Now()
	p.onDone = onDone
	p.completion = rt.Eng.After(d, p.completeFn)
}

func (rt *Runtime) completeTask(p *Proc) {
	p.computeTime += rt.Eng.Now() - p.startedAt
	p.busy = false
	p.paused = false
	p.state = Idle
	done := p.onDone
	p.onDone = nil
	if done != nil {
		done()
	}
	rt.step(p)
}

// pause suspends the running task of p (threaded model, snapshot started).
func (rt *Runtime) pause(p *Proc) {
	if !p.busy || p.paused {
		return
	}
	elapsed := rt.Eng.Now() - p.startedAt
	p.computeTime += elapsed
	p.remaining -= elapsed
	if p.remaining < 0 {
		p.remaining = 0
	}
	rt.Eng.Cancel(p.completion)
	p.paused = true
	p.pausedAtMark(rt.Eng.Now())
	p.state = Blocked
}

func (p *Proc) pausedAtMark(t Time) { p.idleSince = t }

// resume restarts a paused task.
func (rt *Runtime) resume(p *Proc) {
	if !p.busy || !p.paused {
		return
	}
	p.pausedTotal += rt.Eng.Now() - p.idleSince
	p.paused = false
	p.state = Computing
	p.startedAt = rt.Eng.Now()
	p.completion = rt.Eng.After(p.remaining, p.completeFn)
}

// arrive is the network delivery callback: it copies m into the
// recipient's queue.
func (rt *Runtime) arrive(m *Message) {
	p := rt.Procs[m.To]
	switch m.Channel {
	case StateChannel:
		p.stateQ.push(m)
	case DataChannel:
		p.dataQ.push(m)
	case CtrlChannel:
		p.ctrlQ.push(m)
	}
	if rt.Threaded {
		// While a task computes, the helper thread treats state messages
		// (and detector control frames) at its next poll tick; when the
		// process is idle, paused or blocked it reacts immediately (a
		// blocking receive, not a sleep). Data messages always wait for
		// the main loop.
		if m.Channel == StateChannel || m.Channel == CtrlChannel {
			if p.busy && !p.paused {
				rt.schedulePoll(p)
			} else {
				rt.wake(p)
			}
		} else if !p.busy {
			rt.wake(p)
		}
		return
	}
	// Single-threaded model: nothing is treated while computing; the
	// completion callback will re-enter the loop.
	if p.state != Computing {
		rt.wake(p)
	}
}

// wake coalesces main-loop wakeups for p at the current instant.
func (rt *Runtime) wake(p *Proc) {
	if p.wakePending {
		return
	}
	p.wakePending = true
	rt.Eng.At(rt.Eng.Now(), p.wakeFn)
}

// schedulePoll arranges the next helper-thread tick for p. Ticks land on
// the global PollPeriod grid, modelling a thread that sleeps for the period
// between checks.
func (rt *Runtime) schedulePoll(p *Proc) {
	if p.pollPending {
		return
	}
	p.pollPending = true
	now := rt.Eng.Now()
	period := rt.PollPeriod
	if period <= 0 {
		period = 50 * Microsecond
	}
	// Next grid point strictly in the future (the thread is asleep now).
	k := Time(int64(now/period) + 1)
	tick := k * period
	rt.Eng.At(tick, p.pollFn)
}

// pollTick is one helper-thread iteration (§4.5 algorithm): treat every
// pending state message; block the compute thread if the application is now
// Blocked (a snapshot started); restart it when unblocked.
func (rt *Runtime) pollTick(p *Proc) {
	for rt.ctrlApp != nil {
		m := p.ctrlQ.peek()
		if m == nil {
			break
		}
		rt.ctrlApp.HandleCtrl(p, m)
		p.ctrlQ.drop()
	}
	for {
		m := p.stateQ.peek()
		if m == nil {
			break
		}
		rt.app.HandleState(p, m)
		p.stateQ.drop()
	}
	blocked := rt.app.Blocked(p)
	if p.busy {
		if blocked && !p.paused {
			rt.pause(p)
		} else if !blocked && p.paused {
			rt.resume(p)
		}
		return
	}
	// Not computing: let the main loop react (it may unblock, treat data,
	// start tasks).
	rt.wake(p)
}

// step runs the main loop of Algorithm 1 for p until it computes, blocks
// or has nothing to do.
func (rt *Runtime) step(p *Proc) {
	for {
		if p.busy && !p.paused {
			// Actively computing; the loop resumes at completion (or, in
			// the threaded model, state messages flow via poll ticks).
			return
		}
		// Priority 0: termination-detection control frames — exempt from
		// Blocked gating (a snapshot-blocked process still acknowledges
		// and forwards).
		if rt.ctrlApp != nil {
			if m := p.ctrlQ.peek(); m != nil {
				rt.ctrlApp.HandleCtrl(p, m)
				p.ctrlQ.drop()
				continue
			}
		}
		// Priority 1: state-information messages. In the threaded model
		// the helper thread owns that channel, but treating them here too
		// is harmless (the queue is shared) and models the main thread
		// noticing its own channel between tasks.
		if m := p.stateQ.peek(); m != nil {
			rt.app.HandleState(p, m)
			p.stateQ.drop()
			continue
		}
		if rt.app.Blocked(p) {
			p.state = Blocked
			return
		}
		if p.paused {
			// The snapshot that paused the task is over: resume it.
			rt.resume(p)
			return
		}
		p.state = Idle
		// Priority 2: other messages.
		if m := p.dataQ.peek(); m != nil {
			rt.app.HandleData(p, m)
			p.dataQ.drop()
			continue
		}
		// Priority 3: local ready tasks.
		if !rt.app.TryStart(p) {
			return
		}
	}
}

// Wake requests a main-loop iteration for rank r at the current time. The
// application uses it when an internal state change (not tied to a message)
// may enable progress, e.g. a task became ready locally.
func (rt *Runtime) Wake(r int) { rt.wake(rt.Procs[r]) }

// Now returns the current virtual time.
func (rt *Runtime) Now() Time { return rt.Eng.Now() }
