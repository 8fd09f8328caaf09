package net

import (
	"sync"

	"repro/internal/workload"
)

// Transport queues. A rank's inbound side is one mailbox — a mutex, one
// growable FIFO per message class and a wake-up channel — and each
// link's outbound side is one outbox. Neither ever blocks a producer:
// the socket readers, Invoke, self-sends and post all return at once,
// which is what the paper's "sent asynchronously" assumes (a rank that
// cannot send cannot drain, so a blocking send wedges the protocol).
// What bounds memory is what bounds the traffic: every workload is a
// closed loop (a decision waits for its snapshot, a master for its
// acks), TCP flow control holds back a peer whose writer cannot keep
// up, and the depth gauges (TransportStats.InboxPeak/OutboxPeak) make
// growth visible instead of hiding it in a fixed ring.

// Queue array release policy. A burst grows an array; giving it back
// too eagerly makes the next burst grow it again. Measured on the
// net-push script (4 ranks, increments, 30 epochs a round), whose
// bursts come once an epoch and peak near 2 900 mailbox and 1 500
// outbox entries: releasing after 64 quiet drains — a fraction of an
// epoch — regrew every array every epoch (traced run: proc.alloc_mb
// 46 → 69 MB a round, fifo.grow and outbox.put 60 of 152 MB in a heap
// profile); counting the hysteresis in traffic, as below, allocates
// 46.8 MB a round.
const (
	// keepEntries is the array size a queue never gives back: at most
	// 1024 × 72 B per class, which the closed-loop workloads' steady
	// state never exceeds, so outside bursts nothing reallocates.
	keepEntries = 1024
	// releaseAfter is how much under-using traffic, in lengths of the
	// array, must pass before a larger array is dropped: regrowing costs
	// about two array lengths of allocation, so spread over eight it is
	// a quarter of an entry per message however the bursts fall.
	releaseAfter = 8
	// minEntries is a mailbox queue's first allocation.
	minEntries = 16
)

// slack decides when an over-sized queue array goes back to the
// collector: once releaseAfter × its length in messages have passed
// through the queue without any drain needing more than a quarter of it.
type slack struct{ idle int }

// release is asked at each drain: used is the deepest the backlog got,
// passed the messages the drain carried.
func (s *slack) release(used, passed, capacity int) bool {
	if capacity <= keepEntries || used > capacity/4 {
		s.idle = 0
		return false
	}
	if s.idle += passed; s.idle < releaseAfter*capacity {
		return false
	}
	s.idle = 0
	return true
}

// fifo is a growable ring: put and take are O(1), a queue that never
// quite empties reuses its slots instead of growing with the traffic
// that passed through it, and the array doubles only when the backlog
// really exceeds it. Not safe for concurrent use; the mailbox locks.
type fifo[T any] struct {
	buf     []T // len is zero or a power of two
	head, n int
	// peak and passed describe the drain in progress: the deepest
	// backlog and the messages taken since the queue was last empty.
	peak, passed int
	slack        slack
}

func (q *fifo[T]) put(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
}

func (q *fifo[T]) grow() {
	size := 2 * len(q.buf)
	if size < minEntries {
		size = minEntries
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// take removes the oldest entry; the queue must not be empty.
func (q *fifo[T]) take() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop payload references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.passed++
	if q.n--; q.n == 0 {
		if q.slack.release(q.peak, q.passed, len(q.buf)) {
			q.buf, q.head = nil, 0
		}
		q.peak, q.passed = 0, 0
	}
	return v
}

// mailbox is a rank's inbound queue set. Any goroutine may put; one
// consumer takes.
type mailbox[C, S, D any] struct {
	mu    sync.Mutex
	ctrl  fifo[C]
	state fifo[S]
	data  fifo[D]
	// arm is what the parked (or about to park) consumer waits for.
	// Only an armed consumer is signalled: signalling on every put
	// cost ≈ 9 % wall_s on net-pull.
	arm  arming
	peak int // high-water mark of the total depth
	// wake has capacity 1: a token is a hint to take again, so one is
	// enough however many puts raced.
	wake chan struct{}
}

type arming uint8

const (
	disarmed   arming = iota
	armedState        // waiting for control or state only (Busy/Blocked)
	armedAny
)

func newMailbox[C, S, D any]() *mailbox[C, S, D] {
	return &mailbox[C, S, D]{wake: make(chan struct{}, 1)}
}

// posted follows every put: it notes the depth and wakes the consumer
// if it is armed for this class. Caller holds mu; the send never
// blocks.
func (mb *mailbox[C, S, D]) posted(data bool) {
	if d := mb.ctrl.n + mb.state.n + mb.data.n; d > mb.peak {
		mb.peak = d
	}
	if mb.arm == disarmed || (data && mb.arm == armedState) {
		return
	}
	mb.arm = disarmed
	select {
	case mb.wake <- struct{}{}:
	default:
	}
}

func (mb *mailbox[C, S, D]) putCtrl(c C) {
	mb.mu.Lock()
	mb.ctrl.put(c)
	mb.posted(false)
	mb.mu.Unlock()
}

func (mb *mailbox[C, S, D]) putState(s S) {
	mb.mu.Lock()
	mb.state.put(s)
	mb.posted(false)
	mb.mu.Unlock()
}

func (mb *mailbox[C, S, D]) putData(d D) {
	mb.mu.Lock()
	mb.data.put(d)
	mb.posted(true)
	mb.mu.Unlock()
}

// take returns the next message in Algorithm 1's order among the
// classes the consumer may treat now — data only when withData — and
// which class it is. Finding none it arms the wake-up and returns
// ClassNone: the consumer then parks on wake (beside its own stop
// cases) and takes again. A consumer must take before it first parks;
// one that waits first is never armed and never woken.
func (mb *mailbox[C, S, D]) take(withData bool) (cl workload.Class, c C, s S, d D) {
	mb.mu.Lock()
	switch {
	case mb.ctrl.n > 0:
		cl, c = workload.ClassCtrl, mb.ctrl.take()
	case mb.state.n > 0:
		cl, s = workload.ClassState, mb.state.take()
	case withData && mb.data.n > 0:
		cl, d = workload.ClassData, mb.data.take()
	case withData:
		mb.arm = armedAny
	default:
		mb.arm = armedState
	}
	mb.mu.Unlock()
	return
}

// nudge makes the consumer's next park return at once, whether or not
// it is armed — a wake-up that arrives while the consumer is running is
// kept, not lost.
func (mb *mailbox[C, S, D]) nudge() {
	select {
	case mb.wake <- struct{}{}:
	default:
	}
}

// depth returns the current and the deepest total backlog.
func (mb *mailbox[C, S, D]) depth() (now, peak int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.ctrl.n + mb.state.n + mb.data.n, mb.peak
}

// outbox is one link's outbound queue: post appends, and the link's
// writer takes the whole backlog in one swap, so however deep it grew
// it still leaves as vectored writes. Once the writer has exited the
// outbox is closed and further posts are refused — a dead link drops
// frames instead of queueing them for ever.
type outbox struct {
	mu     sync.Mutex
	q      []Message
	armed  bool // the writer found nothing and is parking
	closed bool
	peak   int
	// The fill array and the writer's batch trade places at every
	// swap, so swap parity names the array and each has its own slack.
	slack [2]slack
	turn  uint8
	wake  chan struct{} // capacity 1, as in mailbox
}

func newOutbox() *outbox { return &outbox{wake: make(chan struct{}, 1)} }

// put queues m and reports whether the link still has a writer.
func (o *outbox) put(m Message) bool {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return false
	}
	o.q = append(o.q, m)
	if len(o.q) > o.peak {
		o.peak = len(o.q)
	}
	if o.armed {
		o.armed = false
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
	o.mu.Unlock()
	return true
}

// swap hands the writer the whole backlog and takes spare — the
// writer's previous batch, already cleared — as the array to fill next.
// With nothing queued it arms the wake-up and returns an empty batch;
// the same take-before-park rule as mailbox.take applies.
func (o *outbox) swap(spare []Message) []Message {
	o.mu.Lock()
	batch := o.q
	if len(batch) == 0 {
		o.armed = true
		o.mu.Unlock()
		return spare[:0]
	}
	if o.slack[o.turn].release(len(batch), len(batch), cap(spare)) {
		spare = nil
	}
	o.turn ^= 1
	o.q = spare[:0]
	o.mu.Unlock()
	return batch
}

// close refuses further posts and returns how many queued messages
// will now never leave.
func (o *outbox) close() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	left := len(o.q)
	o.closed, o.q = true, nil
	return left
}

// depth returns the current and the deepest backlog.
func (o *outbox) depth() (now, peak int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.q), o.peak
}
