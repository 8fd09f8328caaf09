package sim

import "repro/internal/workload"

// Proc is one simulated process. All fields are managed by the Runtime.
type Proc struct {
	ID int
	rt *Runtime

	stateQ queue // state-information messages, treated in priority
	dataQ  queue // task/data messages
	ctrlQ  queue // termination-detection control frames, highest priority

	// Compute bookkeeping.
	busy        bool // a task is running or paused
	paused      bool // threaded model: compute paused during a snapshot
	remaining   Duration
	startedAt   Time
	completion  EventHandle
	onDone      func()
	pausedAt    Time     // when the running task was paused
	pausedTotal Duration // cumulative paused time (reporting)
	doneAt      Time     // when its latest task completed

	// wakePending coalesces arrival-triggered wakeups so at most one step
	// event is scheduled at a time.
	wakePending bool
	// pollPending coalesces poll-tick events (threaded model).
	pollPending bool

	// Reusable engine callbacks, built once by NewRuntime so the hot
	// scheduling paths (wake, poll tick, compute completion) do not
	// allocate a fresh closure per event.
	wakeFn     func()
	pollFn     func()
	completeFn func()

	computeTime Duration

	// p is active while it holds a task or its App is Blocked, else idle;
	// idleTotal sums the closed idle intervals, idleFrom opens the last.
	blocked, active bool
	idleFrom        Time
	idleTotal       Duration
}

// ComputeTime returns the cumulative virtual time this process spent
// computing tasks.
func (p *Proc) ComputeTime() Duration { return p.computeTime }

// PausedTime returns the cumulative virtual time this process spent with a
// task paused by the state-message thread (threaded model only).
func (p *Proc) PausedTime() Duration { return p.pausedTotal }

// mark opens or closes p's idle interval after an event that may have
// changed its state.
func (p *Proc) mark() {
	if active := p.Holding() || p.blocked; active != p.active {
		if p.active = active; active {
			p.idleTotal += p.rt.Now() - p.idleFrom
		} else {
			p.idleFrom = p.rt.Now()
		}
	}
}

// Take implements workload.Port: the next queued message in class
// order, copied out of the queue storage the runtime reuses.
func (p *Proc) Take(withData bool, out *workload.Msg) bool {
	var q *queue
	switch {
	case p.ctrlQ.len() > 0:
		q, out.Class = &p.ctrlQ, workload.ClassCtrl
	case p.stateQ.len() > 0:
		q, out.Class = &p.stateQ, workload.ClassState
	case withData && p.dataQ.len() > 0:
		q, out.Class = &p.dataQ, workload.ClassData
	default:
		return false
	}
	e := q.peek()
	out.From, out.Kind, out.Payload = int(e.from), int(e.kind), e.payload
	switch out.Class {
	case workload.ClassCtrl:
		out.Ctrl, out.Payload = p.rt.ctrl.unbox(e.payload), nil
	case workload.ClassData:
		out.Data, out.Payload = p.rt.data.unbox(e.payload), nil
	}
	q.drop()
	return true
}

// Holding implements workload.Port: a task runs (in the threaded model
// a paused one does not hold the process).
func (p *Proc) Holding() bool { return p.busy && !p.paused }

// Resume implements workload.Port: it restarts a task the threaded
// model paused for a snapshot that is now over.
func (p *Proc) Resume() bool {
	if !p.paused {
		return false
	}
	p.rt.resume(p)
	return true
}

// queue is a FIFO of one rank's messages on one channel, held by value,
// so queueing a message allocates nothing once the backing array has
// grown to the rank's peak depth. An entry keeps only what Take hands
// out — sender, kind and payload, 24 bytes — since the recipient and the
// channel are the queue's. peek returns a pointer into the array: it is
// valid until the matching drop and must not be retained past it.
type queue struct {
	items []entry
	head  int
}

// entry is one queued message.
type entry struct {
	from, kind int32
	payload    any
}

func (q *queue) push(m *Message) {
	q.items = append(q.items, entry{from: int32(m.From), kind: int32(m.Kind), payload: m.Payload})
}

// peek returns the oldest entry without removing it, nil when empty.
func (q *queue) peek() *entry {
	if q.head >= len(q.items) {
		return nil
	}
	return &q.items[q.head]
}

// drop removes the entry peek returned, with an amortized O(1)
// compaction of the consumed prefix.
func (q *queue) drop() {
	q.items[q.head].payload = nil
	q.head++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case q.head > 64 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
}

func (q *queue) len() int { return len(q.items) - q.head }
