package termdet

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// fabric is a deterministic in-memory transport for protocol tests: a
// multi-source application whose processes forward work messages, with
// application and control frames interleaved in random (seeded) order
// under per-ordered-pair FIFO — the weakest delivery guarantee any of
// the real runtimes provides.
type fabric struct {
	n    int
	dets []Protocol
	// queues[from][to] is the FIFO of in-flight frames on one ordered
	// pair (application and control frames share it, as they share a
	// TCP connection in internal/net).
	queues [][][]frame
	// inflight counts undelivered application messages.
	inflight int
	rng      uint64
}

type frame struct {
	app  bool
	ctrl Ctrl
}

type fctx struct {
	f    *fabric
	rank int
}

func (c fctx) Rank() int { return c.rank }
func (c fctx) N() int    { return c.f.n }
func (c fctx) SendCtrl(to int, ct Ctrl) {
	c.f.queues[c.rank][to] = append(c.f.queues[c.rank][to], frame{ctrl: ct})
}

func newFabric(proto string, n int, seed uint64) *fabric {
	f := &fabric{n: n, rng: seed | 1}
	f.queues = make([][][]frame, n)
	for r := 0; r < n; r++ {
		f.queues[r] = make([][]frame, n)
		det, err := New(proto, n, r)
		if err != nil {
			panic(err)
		}
		f.dets = append(f.dets, det)
	}
	return f
}

func (f *fabric) next() uint64 {
	f.rng = f.rng*6364136223846793005 + 1442695040888963407
	return f.rng >> 32
}

// send issues an application message from -> to (self-sends allowed).
func (f *fabric) send(from, to int) {
	f.dets[from].OnSend(fctx{f, from}, to)
	f.queues[from][to] = append(f.queues[from][to], frame{app: true})
	f.inflight++
}

// target picks a random destination for an application message from
// rank from: any rank, self included.
func (f *fabric) target(from int) int { return int(f.next() % uint64(f.n)) }

// terminated reports whether any process observed global termination.
func (f *fabric) terminated() bool {
	for _, d := range f.dets {
		if d.Terminated() {
			return true
		}
	}
	return false
}

// step delivers the head frame of one randomly chosen nonempty pair.
// onWork runs the receiving process's application reaction (it may send
// more work); the process declares Passive afterwards. Returns false
// when nothing is in flight.
func (f *fabric) step(onWork func(to int)) bool {
	type pair struct{ from, to int }
	var ready []pair
	for from := 0; from < f.n; from++ {
		for to := 0; to < f.n; to++ {
			if len(f.queues[from][to]) > 0 {
				ready = append(ready, pair{from, to})
			}
		}
	}
	if len(ready) == 0 {
		return false
	}
	p := ready[f.next()%uint64(len(ready))]
	fr := f.queues[p.from][p.to][0]
	f.queues[p.from][p.to] = f.queues[p.from][p.to][1:]
	ctx := fctx{f, p.to}
	if fr.app {
		f.inflight--
		f.dets[p.to].OnReceive(ctx, p.from)
		if onWork != nil {
			onWork(p.to)
		}
		f.dets[p.to].Passive(ctx)
		return true
	}
	f.dets[p.to].OnCtrl(ctx, p.from, fr.ctrl)
	return true
}

// stepCtrlOnly delivers the head frame of one randomly chosen pair
// whose head is a control frame, leaving application messages parked.
// Returns false when no control frame is deliverable.
func (f *fabric) stepCtrlOnly() bool {
	type pair struct{ from, to int }
	var ready []pair
	for from := 0; from < f.n; from++ {
		for to := 0; to < f.n; to++ {
			if q := f.queues[from][to]; len(q) > 0 && !q[0].app {
				ready = append(ready, pair{from, to})
			}
		}
	}
	if len(ready) == 0 {
		return false
	}
	p := ready[f.next()%uint64(len(ready))]
	fr := f.queues[p.from][p.to][0]
	f.queues[p.from][p.to] = f.queues[p.from][p.to][1:]
	f.dets[p.to].OnCtrl(fctx{f, p.to}, p.from, fr.ctrl)
	return true
}

// start runs the initial multi-source burst: every rank seeds `fan`
// messages to random targets (modeling Attach seeding ready work
// everywhere), then declares Passive.
func (f *fabric) start(fan int) {
	for r := 0; r < f.n; r++ {
		for i := 0; i < fan; i++ {
			f.send(r, f.target(r))
		}
	}
	for r := 0; r < f.n; r++ {
		f.dets[r].Passive(fctx{f, r})
	}
}

// drain delivers frames until quiescence, failing on livelock.
func (f *fabric) drain(t testing.TB, onWork func(to int)) {
	t.Helper()
	for i := 0; i < 5_000_000; i++ {
		if !f.step(onWork) {
			return
		}
	}
	t.Fatal("termdet fabric: livelock")
}

func forEachProtocol(t *testing.T, run func(t *testing.T, proto string)) {
	for _, proto := range Names() {
		proto := proto
		t.Run(proto, func(t *testing.T) { run(t, proto) })
	}
}

func TestAllPassiveNoTraffic(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		f := newFabric(proto, 4, 7)
		for r := 0; r < f.n; r++ {
			f.dets[r].Passive(fctx{f, r})
		}
		f.drain(t, nil)
		if !f.terminated() {
			t.Fatal("no work at all: termination must be detected")
		}
	})
}

func TestSingleRank(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		f := newFabric(proto, 1, 3)
		f.dets[0].Passive(fctx{f, 0})
		if !f.dets[0].Terminated() {
			t.Fatal("single passive rank must terminate at once")
		}
	})
}

func TestNoFalseTerminationWithInflight(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		f := newFabric(proto, 3, 11)
		f.send(0, 1)
		for r := 0; r < f.n; r++ {
			f.dets[r].Passive(fctx{f, r})
		}
		// The message to 1 is still in flight: deliver only control
		// frames (probe rounds, acks) and verify no detection.
		for i := 0; i < 10_000 && f.stepCtrlOnly(); i++ {
		}
		if f.terminated() {
			t.Fatal("terminated with an application message in flight")
		}
		f.drain(t, nil)
		if !f.terminated() {
			t.Fatal("termination missed after delivery")
		}
	})
}

func TestForwardingChain(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		f := newFabric(proto, 4, 13)
		f.send(0, 1)
		for r := 0; r < f.n; r++ {
			f.dets[r].Passive(fctx{f, r})
		}
		hops := map[int]int{1: 2, 2: 3}
		f.drain(t, func(to int) {
			if next, ok := hops[to]; ok {
				f.send(to, next)
				delete(hops, to)
			}
		})
		if !f.terminated() {
			t.Fatal("chain termination not detected")
		}
	})
}

func TestSelfSendsTracked(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto string) {
		f := newFabric(proto, 3, 17)
		f.send(1, 1) // self-send while active
		for r := 0; r < f.n; r++ {
			f.dets[r].Passive(fctx{f, r})
		}
		if f.terminated() && f.inflight > 0 {
			t.Fatal("terminated with a self message in flight")
		}
		f.drain(t, nil)
		if !f.terminated() {
			t.Fatal("termination missed with self-sends")
		}
	})
}

func TestDSPanicsOnProtocolViolation(t *testing.T) {
	f := newFabric(ProtocolDS, 2, 1)
	// Detach rank 1 (passive, no deficit): it acks the root.
	f.dets[1].Passive(fctx{f, 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("send while passive+disengaged accepted")
			}
		}()
		f.dets[1].OnSend(fctx{f, 1}, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ack with zero deficit accepted")
			}
		}()
		f.dets[1].OnCtrl(fctx{f, 1}, 0, Ctrl{Kind: CtrlAck})
	}()
}

// TestRandomInterleavingProperty is the detector's core safety/liveness
// property, over random multi-source workloads, random forwarding and
// random frame interleavings (FIFO per pair only): the detector never
// reports termination while an application message is in flight or a
// process still has work, and once the computation is globally passive
// and drained every rank — not just the detecting one — has learned of
// termination.
func TestRandomInterleavingProperty(t *testing.T) {
	for _, proto := range Names() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			prop := func(seed uint64, nRaw, fanRaw uint8) bool {
				n := int(nRaw)%7 + 1
				fan := int(fanRaw) % 3
				f := newFabric(proto, n, seed)
				budget := 60
				f.start(fan)
				// Safety is checked inside the drain: any termination
				// observed with in-flight application work is a bug.
				safe := true
				for i := 0; ; i++ {
					if i > 5_000_000 {
						t.Fatal("livelock")
					}
					if f.terminated() && f.inflight > 0 {
						safe = false
					}
					if !f.step(func(to int) {
						if budget <= 0 {
							return
						}
						if f.next()%4 == 0 { // 25%: forward more work
							budget--
							f.send(to, f.target(to))
						}
					}) {
						break
					}
				}
				for _, d := range f.dets {
					if !d.Terminated() {
						return false
					}
				}
				return safe
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTreesOnTheCompleteGraph pins the routes the protocols use: DS
// engages every rank under rank 0 and the announcement travels the star
// under rank 0; Safra's token travels the ring 0 → 1 → … → n-1 → 0.
func TestTreesOnTheCompleteGraph(t *testing.T) {
	const n = 5
	for r := 0; r < n; r++ {
		d := newDS(n, r)
		wantKids, wantParent := []int(nil), 0
		if r == 0 {
			wantKids, wantParent = []int{1, 2, 3, 4}, -1
		}
		if d.parent != wantParent || !slices.Equal(d.kids, wantKids) || d.deficit != len(wantKids) {
			t.Errorf("rank %d: ds parent %d kids %v deficit %d, want the star under rank 0", r, d.parent, d.kids, d.deficit)
		}
		s := newSafra(n, r)
		if !slices.Equal(s.kids, wantKids) {
			t.Errorf("rank %d: safra announces to %v, want %v", r, s.kids, wantKids)
		}
		if got, want := s.next(), (r+1)%n; got != want {
			t.Errorf("rank %d: token goes to %d, want %d", r, got, want)
		}
	}
}

// TestDSDeficitConservation pins DS's bookkeeping: after a full run
// every deficit returns to zero (every application message — and the
// root's virtual initial diffusion — was acknowledged exactly once).
func TestDSDeficitConservation(t *testing.T) {
	n := 5
	f := newFabric(ProtocolDS, n, 23)
	for r := 0; r < n; r++ {
		f.send(r, (r+1)%n)
	}
	for r := 0; r < n; r++ {
		f.dets[r].Passive(fctx{f, r})
	}
	f.drain(t, nil)
	if !f.terminated() {
		t.Fatal("termination missed")
	}
	for r, d := range f.dets {
		if dd := d.(*ds); dd.deficit != 0 {
			t.Fatalf("rank %d ends with deficit %d", r, dd.deficit)
		}
	}
}

func TestUnknownProtocol(t *testing.T) {
	_, err := New("gossip", 4, 0)
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %v does not list %q", err, name)
		}
	}
	if _, err := New("", 4, 1); err != nil {
		t.Fatalf("empty name must select the default: %v", err)
	}
}
