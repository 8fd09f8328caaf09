package sim

import "fmt"

// event is a scheduled callback in virtual time. Events at equal times fire
// in scheduling order (seq), which makes runs fully deterministic.
//
// Fired and canceled events are recycled through the engine's free list:
// at 4096 simulated procs a solver run schedules tens of millions of
// events, and pooling keeps the steady-state cost of At at zero
// allocations. A generation counter distinguishes a recycled event from
// the scheduling an outstanding EventHandle refers to, so a stale Cancel
// (e.g. of a compute completion that already fired) stays a no-op instead
// of killing an unrelated event that happens to reuse the same slot.
//
// The record holds no time and no position: the heap entry carries the
// (at, seq) key, and lane says only where the event waits. Cancellation
// is lazy, so nothing ever needs an event's heap position.
type event struct {
	gen      uint64
	fn       func()
	canceled bool
	lane     int8 // laneNone, laneHeap or laneNow
}

// An event's lane: not scheduled (fired, canceled and popped, or free),
// in the heap, or in the same-instant fast lane.
const (
	laneNone int8 = iota
	laneHeap
	laneNow
)

// heapEntry is one heap slot: the ordering key next to the event, so
// sifting compares keys without dereferencing event records.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

func (a heapEntry) less(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). Keys are unique,
// so the pop order is the same as any other heap's. Four children per
// node halve the depth of a binary heap, and a sift-down compares
// children that sit side by side in memory.
type eventHeap []heapEntry

func (h *eventHeap) push(x heapEntry) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// pop removes and returns the least entry; the heap must not be empty.
func (h *eventHeap) pop() heapEntry {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h eventHeap) up(i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (h eventHeap) down(i int) {
	n := len(h)
	x := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// heapify restores heap order over arbitrary contents. It starts at the
// parent of the last entry; with fewer than two entries there is none
// and the loop does not run.
func (h eventHeap) heapify() {
	for i := (len(h)+2)/4 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// EventHandle identifies a scheduled event so it can be canceled.
// The zero value is invalid.
type EventHandle struct {
	e   *event
	gen uint64
}

// Valid reports whether the handle refers to an event scheduling that has
// neither fired nor been canceled.
func (h EventHandle) Valid() bool {
	return h.e != nil && h.e.gen == h.gen && !h.e.canceled && h.e.lane != laneNone
}

// Engine is the discrete-event simulation core: a virtual clock and a
// priority queue of timed callbacks. Engine is not safe for concurrent use;
// all application code runs inside event callbacks on a single goroutine.
type Engine struct {
	now      Time
	seq      uint64
	events   eventHeap
	steps    uint64
	free     []*event // recycled events, reused by At
	canceled int      // canceled events still resident in the heap

	// nowQ is the fast lane for events scheduled at the current instant
	// (wakeups, mostly — at 4096 procs they are the bulk of all events).
	// Any event scheduled during instant T for time T carries a larger
	// sequence number than every event already in the heap for T, so
	// firing heap events at T first and then nowQ in FIFO order is
	// exactly the (at, seq) order — without paying O(log n) heap
	// traffic for events that will fire before the clock moves.
	nowQ    []*event
	nowHead int

	// MaxSteps, when non-zero, bounds the number of events processed by Run
	// and RunUntil; exceeding it is reported as an error. It guards against
	// accidental livelock in protocol bugs.
	MaxSteps uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// reset returns a drained engine to time zero, keeping its storage.
func (e *Engine) reset() {
	*e = Engine{events: e.events[:0], free: e.free, nowQ: e.nowQ[:0]}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Seq returns the sequence number the next scheduled event will receive.
// Two events scheduled with no intervening At carry consecutive numbers —
// the property Network's same-tick delivery batching relies on.
func (e *Engine) Seq() uint64 { return e.seq }

// Pending returns the number of scheduled, non-canceled events.
func (e *Engine) Pending() int {
	n := len(e.events) - e.canceled
	for _, ev := range e.nowQ[e.nowHead:] {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// alloc returns a fresh or recycled event.
func (e *Engine) alloc(fn func()) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.fn = fn
		return ev
	}
	return &event{fn: fn}
}

// release recycles a fired or canceled event. Bumping the generation
// invalidates every outstanding handle to the old scheduling.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.canceled = false
	ev.lane = laneNone
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it would violate causality.
func (e *Engine) At(t Time, fn func()) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc(fn)
	if t == e.now {
		ev.lane = laneNow
		e.nowQ = append(e.nowQ, ev)
	} else {
		ev.lane = laneHeap
		e.events.push(heapEntry{t, e.seq, ev})
	}
	e.seq++
	return EventHandle{ev, ev.gen}
}

// After schedules fn to run d seconds of virtual time from now.
func (e *Engine) After(d Duration, fn func()) EventHandle {
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired (or was already canceled) is a no-op. Canceled events stay
// resident until popped or until they outnumber live ones, at which point
// the heap is compacted in place — mass cancellation (e.g. a chaos plan
// killing a rank with thousands of queued deliveries) cannot hold the
// heap's memory hostage.
func (e *Engine) Cancel(h EventHandle) {
	if !h.Valid() {
		return
	}
	h.e.canceled = true
	if h.e.lane == laneNow {
		// nowQ events drain before the clock moves; no compaction needed.
		return
	}
	e.canceled++
	if e.canceled > len(e.events)/2 && e.canceled > 64 {
		e.compact()
	}
}

// compact rebuilds the heap without its canceled events.
func (e *Engine) compact() {
	live := e.events[:0]
	for _, x := range e.events {
		if x.ev.canceled {
			e.release(x.ev)
		} else {
			live = append(live, x)
		}
	}
	clear(e.events[len(live):])
	e.events = live
	e.canceled = 0
	e.events.heapify()
}

// Run processes events until none remain. It returns an error if MaxSteps
// is exceeded.
func (e *Engine) Run() error {
	return e.RunUntil(Time(maxFloat))
}

const maxFloat = 1.7976931348623157e308

// RunUntil processes events with timestamps <= deadline, advancing the
// clock. Events scheduled during processing are themselves processed if
// they fall within the deadline.
func (e *Engine) RunUntil(deadline Time) error {
	for {
		var ev *event
		switch {
		case len(e.events) > 0 && e.events[0].at == e.now:
			// Heap events due at the current instant were scheduled in an
			// earlier instant: they precede everything in the fast lane.
			if e.now > deadline {
				return nil
			}
			ev = e.events.pop().ev
			if ev.canceled {
				e.canceled--
				e.release(ev)
				continue
			}
		case e.nowHead < len(e.nowQ):
			if e.now > deadline {
				return nil
			}
			ev = e.nowQ[e.nowHead]
			e.nowQ[e.nowHead] = nil
			e.nowHead++
			if e.nowHead == len(e.nowQ) {
				e.nowQ = e.nowQ[:0]
				e.nowHead = 0
			}
			if ev.canceled {
				e.release(ev)
				continue
			}
		case len(e.events) > 0:
			if e.events[0].at > deadline {
				return nil
			}
			x := e.events.pop()
			ev = x.ev
			if ev.canceled {
				e.canceled--
				e.release(ev)
				continue
			}
			if x.at < e.now {
				panic("sim: event queue time went backwards")
			}
			e.now = x.at
		default:
			return nil
		}
		e.steps++
		if e.MaxSteps > 0 && e.steps > e.MaxSteps {
			return fmt.Errorf("sim: exceeded MaxSteps=%d at t=%v (possible livelock)", e.MaxSteps, e.now)
		}
		fn := ev.fn
		e.release(ev)
		fn()
	}
}
