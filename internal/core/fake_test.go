package core

// Test fabric: an in-memory message-passing network with per-pair FIFO
// guarantees and deterministic global delivery order, so protocol
// scenarios (including the paper's 3-process asynchronism example) can be
// scripted precisely.

type fakeMsg struct {
	from, to int
	kind     int
	payload  any
}

type fakeNet struct {
	n     int
	exs   []Exchanger
	queue []fakeMsg // global FIFO (preserves per-pair FIFO)
	now   float64
	sent  map[int]int // per-kind counters
}

func newFakeNet(n int) *fakeNet {
	return &fakeNet{n: n, exs: make([]Exchanger, n), sent: map[int]int{}}
}

type fakeCtx struct {
	net  *fakeNet
	rank int
}

func (c *fakeCtx) Rank() int    { return c.rank }
func (c *fakeCtx) N() int       { return c.net.n }
func (c *fakeCtx) Now() float64 { return c.net.now }

func (c *fakeCtx) Send(to int, kind int, payload any, bytes float64) {
	c.net.sent[kind]++
	c.net.queue = append(c.net.queue, fakeMsg{c.rank, to, kind, payload})
}

func (f *fakeNet) ctx(rank int) *fakeCtx { return &fakeCtx{net: f, rank: rank} }

// step delivers the first queued message; returns false when empty.
func (f *fakeNet) step() bool {
	if len(f.queue) == 0 {
		return false
	}
	m := f.queue[0]
	f.queue = f.queue[1:]
	f.now += 0.001
	f.exs[m.to].HandleMessage(f.ctx(m.to), m.from, m.kind, m.payload)
	return true
}

// drain delivers messages until quiescence (bounded, to catch livelock).
func (f *fakeNet) drain(limit int) int {
	steps := 0
	for f.step() {
		steps++
		if steps > limit {
			panic("fakeNet: message storm, protocol livelock?")
		}
	}
	return steps
}

// deliverNext delivers the first queued message matching the filter,
// keeping the rest in order; returns false if none matches.
func (f *fakeNet) deliverNext(match func(fakeMsg) bool) bool {
	for i, m := range f.queue {
		if match(m) {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			f.now += 0.001
			f.exs[m.to].HandleMessage(f.ctx(m.to), m.from, m.kind, m.payload)
			return true
		}
	}
	return false
}
