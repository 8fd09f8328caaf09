package workload

// The rank loop: Algorithm 1 for a hosted App, written once. The
// simulator steps it from its wake and poll events over a *sim.Proc;
// the TCP runtime and the service run it on one goroutine per rank
// through Driver. The priority order, the detector hooks, the
// termdet.idle span and the busy meter are therefore the same code on
// every runtime.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/termdet"
)

// Class is one of Algorithm 1's message classes, in the order a rank
// treats them: detector control frames first (they bypass Blocked
// gating), then state information, then data.
type Class uint8

const (
	// ClassNone is an empty take: nothing to treat now.
	ClassNone Class = iota
	ClassCtrl
	ClassState
	ClassData
)

// Msg is one message a Port hands the loop. Class says which fields
// carry it: Ctrl for a control frame, Kind and Payload for state
// information, Data for an application message.
type Msg struct {
	Class   Class
	From    int
	Kind    int
	Payload any
	Data    DataMsg
	Ctrl    termdet.Ctrl
}

// Port is what a host gives one rank's loop.
type Port interface {
	// Take moves the rank's next message in class order — data only
	// when withData — into m and reports whether there was one.
	Take(withData bool, m *Msg) bool
	// Holding reports whether a task holds the rank: nothing is treated
	// until it completes or a snapshot pauses it.
	Holding() bool
	// Resume restarts a task a snapshot paused and reports whether there
	// was one. Only the simulator's threaded model pauses tasks.
	Resume() bool
}

// Loop is one rank's Algorithm 1 over a hosted App. The host fills the
// fields once and calls Step whenever the rank may progress, serialized
// with every other App callback it makes; Step never blocks.
type Loop struct {
	Rank int
	App  App
	// Det is the rank's termination detector, Ctx its control channel.
	Det termdet.Protocol
	Ctx termdet.Context
	// Done, when non-nil, is called whenever the loop finds the
	// detector terminated.
	Done func()
	// Now is the rank's clock; Rec, when non-nil, receives its
	// termdet.idle spans.
	Now func() float64
	Rec *chaos.Recorder
	// Busy meters the rank's Blocked time.
	Busy *BusyMeter

	idleSid int64 // open termdet.idle span, 0 when none
	msg     Msg   // the message being treated
}

// Step runs the loop until a task holds the rank, a snapshot blocks it
// or nothing is left to do: control frames, then state messages, then —
// unless Blocked — a paused task's resumption, data messages and
// TryStart. A rank left with none of these declares itself passive.
func (l *Loop) Step(p Port) {
	m := &l.msg
	for !p.Holding() {
		if p.Take(false, m) {
			l.treat(m)
			continue
		}
		if l.App.Blocked(l.Rank) || p.Resume() {
			return
		}
		if p.Take(true, m) {
			l.treat(m)
		} else if !l.tryStart() {
			return
		}
	}
}

// Poll treats every queued control frame and state message and reports
// whether the rank is Blocked: the prefix of Step the simulator's
// helper thread runs while a task computes.
func (l *Loop) Poll(p Port) bool {
	for p.Take(false, &l.msg) {
		l.treat(&l.msg)
	}
	return l.App.Blocked(l.Rank)
}

// treat handles one message.
func (l *Loop) treat(m *Msg) {
	switch m.Class {
	case ClassCtrl:
		// Detector frames never reach the application.
		l.Det.OnCtrl(l.Ctx, m.From, m.Ctrl)
		l.checkDone()
	case ClassState:
		l.App.HandleState(l.Rank, m.From, m.Kind, m.Payload)
		l.Busy.Observe(l.App.Blocked(l.Rank))
	case ClassData:
		l.endIdle()
		l.Det.OnReceive(l.Ctx, m.From)
		l.App.HandleData(l.Rank, m.From, m.Data)
	}
}

// tryStart offers the rank a local ready task and reports whether one
// started. TryStart can open a snapshot (the Acquire broadcast blocks
// the rank), so the busy meter observes here too. A rank that starts
// nothing and is not blocked is passive: the detector reactivates it on
// the next data receipt.
func (l *Loop) tryStart() bool {
	started := l.App.TryStart(l.Rank)
	blocked := l.App.Blocked(l.Rank)
	l.Busy.Observe(blocked)
	if started {
		l.endIdle()
		return true
	}
	if !blocked {
		if l.Rec != nil && l.idleSid == 0 {
			l.idleSid = l.Rec.SpanBegin(l.Rank, "termdet.idle", l.Now())
		}
		l.Det.Passive(l.Ctx)
		l.checkDone()
	}
	return false
}

func (l *Loop) checkDone() {
	if l.Done != nil && l.Det.Terminated() {
		l.Done()
	}
}

// endIdle closes the open termdet.idle span: the rank is active again.
func (l *Loop) endIdle() {
	if l.idleSid != 0 {
		l.Rec.SpanEnd(l.Rank, "termdet.idle", l.idleSid, l.Now())
		l.idleSid = 0
	}
}

// EndSpans closes the spans still open when the host stops the rank,
// so the trace stays balanced; an open busy interval stays unmetered.
func (l *Loop) EndSpans() {
	l.endIdle()
	l.Busy.EndSpan()
}

// BusyMeter accumulates the time a rank spends Blocked — a snapshot
// round in flight — and brackets each interval with a snapshot.round
// span. Observe belongs to the rank's goroutine (or event context);
// Seconds may be read from any goroutine.
type BusyMeter struct {
	// Now is the clock the intervals are measured on: virtual seconds on
	// the simulator, wall seconds elsewhere.
	Now func() float64
	// Rec, when non-nil, receives the spans of rank Rank.
	Rec  *chaos.Recorder
	Rank int

	open    bool
	since   float64
	sid     int64
	seconds atomic.Uint64 // float64 bits of the closed intervals' sum
}

// Observe records the current Busy state, opening or closing an
// interval on a transition.
func (m *BusyMeter) Observe(busy bool) {
	if busy != m.open {
		m.flip(busy)
	}
}

// flip is Observe's transition, split out so Observe inlines.
func (m *BusyMeter) flip(busy bool) {
	now := m.Now()
	if m.open = busy; busy {
		m.since = now
		m.sid = m.Rec.SpanBegin(m.Rank, "snapshot.round", now)
		return
	}
	m.seconds.Store(math.Float64bits(m.Seconds() + now - m.since))
	m.Rec.SpanEnd(m.Rank, "snapshot.round", m.sid, now)
	m.sid = 0
}

// EndSpan closes the snapshot.round span of a round still in flight
// when the rank stops.
func (m *BusyMeter) EndSpan() {
	if m.sid != 0 {
		m.Rec.SpanEnd(m.Rank, "snapshot.round", m.sid, m.Now())
		m.sid = 0
	}
}

// Seconds returns the busy time of the closed intervals.
func (m *BusyMeter) Seconds() float64 { return math.Float64frombits(m.seconds.Load()) }

// Inbox is a goroutine host's queue for one rank. Take is Port.Take;
// finding nothing it arms Ready, and a receive on Ready means "take
// again".
type Inbox interface {
	Take(withData bool, m *Msg) bool
	Ready() <-chan struct{}
}

// Driver runs one rank's Loop over its Inbox on a goroutine of its own:
// the wall-clock hosts' (net, service) side of the loop.
type Driver struct {
	Loop
	Inbox
	// mu is the lock the host serializes App callbacks across its ranks
	// with: held for each Step and each compute completion.
	mu    *sync.Mutex
	scale float64 // wall seconds per application second: the rank's speed factor

	pending bool
	wait    time.Duration
	done    func()
	timer   *time.Timer // reused across compute intervals
}

// NewDriver drives l over in under mu, spending each application second
// of compute as the rank's speed factor in wall seconds. It refuses
// opts.Threaded rather than silently run the single-threaded model.
func NewDriver(l Loop, in Inbox, mu *sync.Mutex, opts AppRunOptions) (*Driver, error) {
	if opts.Threaded {
		return nil, errors.New("workload: AppRunOptions.Threaded (the §4.5 helper-thread model) runs only on the simulator")
	}
	return &Driver{Loop: l, Inbox: in, mu: mu, scale: opts.SpeedOf(l.Rank)}, nil
}

// Compute defers done by seconds of application time. A rank runs one
// task at a time: a second Compute while one is pending panics.
func (d *Driver) Compute(seconds float64, done func()) {
	if d.pending {
		panic(fmt.Sprintf("workload: rank %d started a task while busy", d.Rank))
	}
	d.pending, d.done = true, done
	d.wait = time.Duration(seconds * d.scale * float64(time.Second))
}

// Holding and Resume make the driver, with its Inbox's Take, its loop's
// Port: a task holds the rank while its compute is pending, and is
// never paused.
func (d *Driver) Holding() bool { return d.pending }
func (d *Driver) Resume() bool  { return false }

// Run drives the rank until quit closes: the pending compute first — a
// sleep bounded by quit, then its completion — else one Step, then a
// park on the inbox until a message arrives or the application wakes
// the rank.
func (d *Driver) Run(quit <-chan struct{}) {
	defer d.EndSpans()
	for {
		select {
		case <-quit:
			return
		default:
		}
		if d.pending {
			if !d.sleep(quit) {
				return
			}
			done := d.done
			d.pending, d.done = false, nil
			d.mu.Lock()
			done()
			d.mu.Unlock()
			continue
		}
		d.mu.Lock()
		d.Step(d)
		d.mu.Unlock()
		if d.pending {
			continue
		}
		select {
		case <-d.Ready():
		case <-quit:
			return
		}
	}
}

// sleep spends the pending compute's wall-clock interval and reports
// whether it ran to the end.
func (d *Driver) sleep(quit <-chan struct{}) bool {
	if d.wait <= 0 {
		return true
	}
	if d.timer == nil {
		d.timer = time.NewTimer(d.wait)
	} else {
		d.timer.Reset(d.wait)
	}
	select {
	case <-d.timer.C:
		return true
	case <-quit:
		d.timer.Stop()
		return false
	}
}
