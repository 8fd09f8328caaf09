package sim

import (
	"fmt"

	"repro/internal/termdet"
	"repro/internal/workload"
)

// App is what the Runtime drives on every process: the rank loop
// (workload.Loop) over the process as its workload.Port. Step runs when
// p wakes — at most once per instant — or its task completes; Poll is
// one tick of the threaded model's helper thread, which treats the
// queued control and state messages and reports whether p is now
// blocked. Both run in event context and must not block; long-running
// work is expressed by calling Runtime.Compute.
type App interface {
	Step(p *Proc)
	Poll(p *Proc) (blocked bool)
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
	Threaded bool
	// PollPeriod is the helper-thread sleep period (paper: 50 µs).
	PollPeriod Duration
	// data and ctrl box the data messages and control frames in flight.
	data boxes[workload.DataMsg]
	ctrl boxes[termdet.Ctrl]
}

// boxes is a free list of the pointers one payload type travels in: a
// Payload allocates only while a run's peak in flight grows.
type boxes[T any] []*T

func (b *boxes[T]) box(v T) (p *T) {
	if n := len(*b); n > 0 {
		p, *b = (*b)[n-1], (*b)[:n-1]
	} else {
		p = new(T)
	}
	*p = v
	return p
}

// unbox returns what a box carries, the zero value for any other
// payload, and recycles the box.
func (b *boxes[T]) unbox(payload any) (v T) {
	if p, ok := payload.(*T); ok {
		v, *b = *p, append(*b, p)
	}
	return v
}

// NewRuntime creates a runtime with n processes running app.
func NewRuntime(eng *Engine, n int, cfg NetworkConfig, app App) *Runtime {
	return (&Runtime{Net: new(Network)}).init(eng, n, cfg, app)
}

// init starts rt afresh on eng, keeping the storage an earlier run grew:
// the network's, the processes' queues and the message boxes.
func (rt *Runtime) init(eng *Engine, n int, cfg NetworkConfig, app App) *Runtime {
	nw, procs := rt.Net, resized(rt.Procs, n)
	*rt = Runtime{Eng: eng, Procs: procs, app: app, PollPeriod: 50 * Microsecond, data: rt.data, ctrl: rt.ctrl}
	rt.Net = nw.init(eng, n, cfg, rt.arrive)
	for i, p := range procs {
		if p == nil {
			p = new(Proc)
			// The engine callbacks of p are built once here: scheduling a
			// wake, poll tick or completion on the hot path reuses these
			// closures instead of allocating a capture per event.
			p.wakeFn = func() {
				p.wakePending = false
				rt.app.Step(p)
				p.mark()
			}
			p.pollFn = func() {
				p.pollPending = false
				rt.pollTick(p)
			}
			p.completeFn = func() { rt.completeTask(p) }
			procs[i] = p
		}
		*p = Proc{ID: i, rt: rt, wakeFn: p.wakeFn, pollFn: p.pollFn, completeFn: p.completeFn,
			stateQ: queue{items: p.stateQ.items[:0]}, dataQ: queue{items: p.dataQ.items[:0]}, ctrlQ: queue{items: p.ctrlQ.items[:0]}}
	}
	return rt
}

// Start schedules the first main-loop iteration of every process at t=0.
func (rt *Runtime) Start() {
	for _, p := range rt.Procs {
		rt.wake(p)
	}
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
	p.remaining = d
	p.startedAt = rt.Eng.Now()
	p.onDone = onDone
	p.completion = rt.Eng.After(d, p.completeFn)
}

func (rt *Runtime) completeTask(p *Proc) {
	p.computeTime += rt.Eng.Now() - p.startedAt
	p.doneAt = rt.Eng.Now()
	p.busy = false
	p.paused = false
	done := p.onDone
	p.onDone = nil
	if done != nil {
		done()
	}
	rt.app.Step(p)
	p.mark()
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
	p.pausedAt = rt.Eng.Now()
}

// resume restarts a paused task.
func (rt *Runtime) resume(p *Proc) {
	if !p.busy || !p.paused {
		return
	}
	p.pausedTotal += rt.Eng.Now() - p.pausedAt
	p.paused = false
	p.startedAt = rt.Eng.Now()
	p.completion = rt.Eng.After(p.remaining, p.completeFn)
}

// arrive is the network delivery callback: it queues what the recipient
// will take of m on m's channel.
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
	if !p.Holding() {
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
// pending control and state message; block the compute thread if the
// application is now Blocked (a snapshot started); restart it when
// unblocked.
func (rt *Runtime) pollTick(p *Proc) {
	defer p.mark()
	p.blocked = rt.app.Poll(p)
	if p.busy {
		if p.blocked && !p.paused {
			rt.pause(p)
		} else if !p.blocked && p.paused {
			rt.resume(p)
		}
		return
	}
	// Not computing: let the main loop react (it may unblock, treat data,
	// start tasks).
	rt.wake(p)
}

// Wake requests a main-loop iteration for rank r at the current time. The
// application uses it when an internal state change (not tied to a message)
// may enable progress, e.g. a task became ready locally.
func (rt *Runtime) Wake(r int) { rt.wake(rt.Procs[r]) }

// Now returns the current virtual time.
func (rt *Runtime) Now() Time { return rt.Eng.Now() }
