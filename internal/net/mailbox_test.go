package net

import (
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// parkOrFail is the consumer's park, bounded so a lost wake-up fails
// the test instead of hanging it.
func parkOrFail(t *testing.T, wake <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-wake:
	case <-time.After(10 * time.Second):
		t.Fatalf("lost wake-up: %s", what)
	}
}

// TestMailboxClassOrder: take serves control before state before data
// whatever order they were put in, FIFO within each class, and leaves
// data alone while the consumer may not treat it.
func TestMailboxClassOrder(t *testing.T) {
	mb := newMailbox[int, int, int]()
	for i := 0; i < 3; i++ {
		mb.putData(100 + i)
		mb.putState(10 + i)
		mb.putCtrl(i)
	}
	var got []int
	for {
		cl, c, s, _ := mb.take(false)
		if cl == workload.ClassNone {
			break
		}
		if cl == workload.ClassData {
			t.Fatalf("take(false) served data")
		}
		got = append(got, c+s) // the class not served is zero
	}
	for {
		cl, _, _, d := mb.take(true)
		if cl == workload.ClassNone {
			break
		}
		got = append(got, d)
	}
	want := []int{0, 1, 2, 10, 11, 12, 100, 101, 102}
	if len(got) != len(want) {
		t.Fatalf("took %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("took %v, want %v", got, want)
		}
	}
	if now, peak := mb.depth(); now != 0 || peak != 9 {
		t.Errorf("depth %d peak %d, want 0 and 9", now, peak)
	}
}

// TestMailboxArming: a consumer armed for state only is not woken by
// data it may not treat, is woken by state, and a nudge that arrives
// while it is running ends its next park.
func TestMailboxArming(t *testing.T) {
	mb := newMailbox[int, int, int]()
	if cl, _, _, _ := mb.take(false); cl != workload.ClassNone {
		t.Fatalf("empty mailbox served class %d", cl)
	}
	mb.putData(1)
	select {
	case <-mb.wake:
		t.Fatalf("data woke a consumer armed for state only")
	default:
	}
	mb.putState(2)
	parkOrFail(t, mb.wake, "state put to an armed consumer")
	if cl, _, s, _ := mb.take(false); cl != workload.ClassState || s != 2 {
		t.Fatalf("took class %d value %d, want the state message", cl, s)
	}
	// Not armed now (the last take found a message): a put is silent,
	// a nudge is not.
	mb.putState(3)
	select {
	case <-mb.wake:
		t.Fatalf("put signalled a consumer that was not armed")
	default:
	}
	mb.nudge()
	parkOrFail(t, mb.wake, "nudge while running")
}

// TestMailboxNoLostWakeup: 8 producers put 10⁵ messages each while the
// consumer takes or parks; every message is taken, per-producer order
// holds, and the consumer never parks for good with messages queued.
func TestMailboxNoLostWakeup(t *testing.T) {
	const producers, each = 8, 100_000
	mb := newMailbox[int, int, [2]int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%64 == 0 {
					mb.putState(p) // mixed classes share the wake-up
				}
				mb.putData([2]int{p, i})
			}
		}(p)
	}
	next := make([]int, producers)
	states := 0
	for taken := 0; taken < producers*each; {
		switch cl, _, _, d := mb.take(true); cl {
		case workload.ClassData:
			if d[1] != next[d[0]] {
				t.Fatalf("producer %d: took item %d, want %d", d[0], d[1], next[d[0]])
			}
			next[d[0]]++
			taken++
		case workload.ClassState:
			states++
		default:
			parkOrFail(t, mb.wake, "consumer parked with producers still putting")
		}
	}
	wg.Wait()
	for {
		cl, _, _, _ := mb.take(true)
		if cl == workload.ClassNone {
			break
		}
		states++
	}
	if want := producers * ((each + 63) / 64); states != want {
		t.Errorf("took %d state messages, want %d", states, want)
	}
}

// TestFifoGivesBurstArrayBack: a 10⁶-message burst grows the array; it
// survives quiet traffic short of releaseAfter array lengths (no
// regrowth at every burst) and is given back once that much has passed.
func TestFifoGivesBurstArrayBack(t *testing.T) {
	var q fifo[int]
	const burst = 1_000_000
	for i := 0; i < burst; i++ {
		q.put(i)
	}
	for i := 0; i < burst; i++ {
		if v := q.take(); v != i {
			t.Fatalf("took %d, want %d", v, i)
		}
	}
	size := len(q.buf)
	if size < burst {
		t.Fatalf("array of %d entries after a %d-message burst", size, burst)
	}
	for i := 0; i < releaseAfter*size-1; i++ {
		q.put(i)
		q.take()
	}
	if len(q.buf) != size {
		t.Fatalf("array dropped before %d array lengths of quiet traffic had passed", releaseAfter)
	}
	q.put(0)
	q.take()
	if len(q.buf) > keepEntries {
		t.Fatalf("array of %d entries kept after %d array lengths of quiet traffic", len(q.buf), releaseAfter)
	}
}

// TestFifoNeverEmptyDoesNotGrow: 10⁷ messages through a queue that
// always holds a few must reuse the first array, not grow with the
// traffic that passed.
func TestFifoNeverEmptyDoesNotGrow(t *testing.T) {
	var q fifo[int]
	q.put(-2)
	q.put(-1)
	last := -3
	for i := 0; i < 10_000_000; i++ {
		q.put(i)
		v := q.take()
		if v != last+1 {
			t.Fatalf("took %d after %d", v, last)
		}
		last = v
	}
	if len(q.buf) != minEntries {
		t.Fatalf("array grew to %d entries holding 2", len(q.buf))
	}
}

// TestQueuesSteadyStateZeroAlloc: once warm, put + take and post + swap
// allocate nothing.
func TestQueuesSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mb := newMailbox[ctrlMsg, inMsg, dataMsg]()
	mb.putData(dataMsg{})
	mb.take(true)
	if allocs := testing.AllocsPerRun(1000, func() {
		mb.putState(inMsg{from: 1})
		mb.putData(dataMsg{from: 2})
		mb.take(true)
		mb.take(true)
	}); allocs != 0 {
		t.Errorf("mailbox put+take: %v allocs/op, want 0", allocs)
	}
	o := newOutbox()
	var batch []Message
	for i := 0; i < 4; i++ { // warm both arrays of the swap
		o.put(Message{})
		batch = o.swap(batch)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		o.put(Message{Type: TypeWorkDone})
		o.put(Message{Type: TypeWorkDone})
		batch = o.swap(batch)
	}); allocs != 0 {
		t.Errorf("outbox put+swap: %v allocs/op, want 0", allocs)
	}
}

// TestOutbox: the backlog leaves whole and in order, an empty swap arms
// the wake-up, a burst's arrays are given back, and a closed outbox
// refuses posts and reports what it discarded.
func TestOutbox(t *testing.T) {
	o := newOutbox()
	var batch []Message
	if batch = o.swap(batch); len(batch) != 0 {
		t.Fatalf("empty outbox handed out %d messages", len(batch))
	}
	next := int32(0)
	for round := 1; round <= 3; round++ {
		for i := 0; i < round*5; i++ {
			o.put(Message{From: next + int32(i)})
		}
		if round == 1 {
			parkOrFail(t, o.wake, "post to an armed writer")
		}
		batch = o.swap(batch)
		if len(batch) != round*5 {
			t.Fatalf("round %d: swap handed out %d messages, want %d", round, len(batch), round*5)
		}
		for _, m := range batch {
			if m.From != next {
				t.Fatalf("round %d: message %d out of order, want %d", round, m.From, next)
			}
			next++
		}
		clear(batch)
	}
	if _, peak := o.depth(); peak != 15 {
		t.Errorf("peak depth %d, want 15", peak)
	}

	const burst = 100_000
	for i := 0; i < burst; i++ {
		o.put(Message{})
	}
	batch = o.swap(batch)
	clear(batch)
	size := cap(batch)
	// Each array of the swap carries half the traffic and has its own
	// hysteresis.
	for i := 0; i < 2*releaseAfter*size+2; i++ {
		o.put(Message{})
		batch = o.swap(batch)
		clear(batch)
	}
	if cap(batch) > keepEntries || cap(o.q) > keepEntries {
		t.Errorf("burst arrays kept: writer's %d entries, outbox's %d", cap(batch), cap(o.q))
	}

	o.put(Message{})
	o.put(Message{})
	if left := o.close(); left != 2 {
		t.Errorf("close discarded %d messages, want 2", left)
	}
	if o.put(Message{}) {
		t.Errorf("closed outbox accepted a post")
	}
}
