package sim

// ProcState is the execution state of a simulated process.
type ProcState uint8

const (
	// Idle: the process is in its main loop with nothing to do; the next
	// message arrival wakes it.
	Idle ProcState = iota
	// Computing: a task is running. In the single-threaded model no
	// message is treated until the task completes; in the threaded model
	// state-information messages are treated at poll ticks.
	Computing
	// Blocked: the application refuses to treat data messages or start
	// tasks (e.g. the process participates in an ongoing distributed
	// snapshot). State-information messages are still treated.
	Blocked
)

func (s ProcState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Computing:
		return "computing"
	case Blocked:
		return "blocked"
	}
	return "invalid"
}

// Proc is one simulated process. All fields are managed by the Runtime.
type Proc struct {
	ID    int
	state ProcState

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
	pausedTotal Duration // cumulative paused time (reporting)

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

	// Stats.
	computeTime Duration
	idleSince   Time
	idleTime    Duration
}

// State returns the current execution state.
func (p *Proc) State() ProcState { return p.state }

// ComputeTime returns the cumulative virtual time this process spent
// computing tasks.
func (p *Proc) ComputeTime() Duration { return p.computeTime }

// PausedTime returns the cumulative virtual time this process spent with a
// task paused by the state-message thread (threaded model only).
func (p *Proc) PausedTime() Duration { return p.pausedTotal }

// QueuedState returns the number of untreated state-information messages.
func (p *Proc) QueuedState() int { return p.stateQ.len() }

// QueuedData returns the number of untreated data messages.
func (p *Proc) QueuedData() int { return p.dataQ.len() }

// queue is a FIFO of messages held by value, so queueing a message
// allocates nothing once the backing array has grown to the rank's peak
// depth. peek returns a pointer into that array: it is valid until the
// matching drop and must not be retained past it.
type queue struct {
	items []Message
	head  int
}

func (q *queue) push(m *Message) { q.items = append(q.items, *m) }

// peek returns the oldest message without removing it, nil when empty.
func (q *queue) peek() *Message {
	if q.head >= len(q.items) {
		return nil
	}
	return &q.items[q.head]
}

// drop removes the message peek returned, with an amortized O(1)
// compaction of the consumed prefix.
func (q *queue) drop() {
	q.items[q.head].Payload = nil
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
