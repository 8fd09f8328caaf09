package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/workload"
)

// netSend is one scripted transmission: to < 0 multicasts to every
// other rank (a nil skip set), or with multi to every rank not in skip.
type netSend struct {
	from, to int
	m        Message
	multi    bool
	skip     []uint64
}

// netStep is a group of transmissions made back to back inside one
// engine event at virtual time at — several senders at one instant.
type netStep struct {
	at    Time
	sends []netSend
}

// netTrace is everything observable about a network run.
type netTrace struct {
	Delivered []Message // copies, in delivery order
	At        []Time    // engine clock at each delivery
	Event     []uint64  // engine event of each delivery: the batch boundaries
	Steps     uint64
	Counters  core.Counters
	Dropped   [NumChannels]int64
	// Clocks holds, after each step, the clocks of the links leaving
	// the step's senders as seen from that instant: max(clock, now),
	// what a message sent then waits for.
	Clocks [][]Time
}

// playMode selects how play transmits a script.
type playMode int

const (
	viaMulticast playMode = iota // Network.Send and Multicast
	viaSendLoop                  // every broadcast as its ascending loop of Sends
	viaDense                     // the network's send over the dense link-clock oracle
)

// transport is what a script is played through.
type transport interface {
	Send(m *Message)
	Multicast(from int, template Message, skip []uint64) int
	clock(from, to int) Time
}

// clock returns the clock of the link from → to.
func (nw *Network) clock(from, to int) Time {
	r := &nw.links[from]
	if i, ok := r.find(to); ok {
		return r.exc[i].clock
	}
	return r.class[nw.linkClass(from, to)]
}

// skipped reports whether a multicast with skip passes rank r by.
func skipped(skip []uint64, r int) bool {
	return skip != nil && r/64 < len(skip) && skip[r/64]&(1<<(r%64)) != 0
}

// play runs script on a fresh network, transmitting as mode says, and
// returns the trace and the network. The first step runs before the
// engine starts, as app.Attach's sends do.
func play(t *testing.T, n int, cfg NetworkConfig, script []netStep, mode playMode) (netTrace, *Network) {
	t.Helper()
	eng := NewEngine()
	var tr netTrace
	nw := NewNetwork(eng, n, cfg, func(m *Message) {
		tr.Delivered = append(tr.Delivered, *m)
		tr.At = append(tr.At, eng.Now())
		tr.Event = append(tr.Event, eng.Steps())
	})
	var tp transport = nw
	if mode == viaDense {
		tp = newDenseLinks(nw)
	}
	run := func(st netStep) {
		for _, s := range st.sends {
			switch {
			case s.to >= 0:
				m := s.m
				m.From, m.To = s.from, s.to
				tp.Send(&m)
			case mode == viaSendLoop:
				for to := 0; to < n; to++ {
					if to != s.from && !(s.multi && skipped(s.skip, to)) {
						m := s.m
						m.From, m.To = s.from, to
						tp.Send(&m)
					}
				}
			case s.multi:
				want := 0
				for to := 0; to < n; to++ {
					if to != s.from && !skipped(s.skip, to) {
						want++
					}
				}
				if got := tp.Multicast(s.from, s.m, s.skip); got != want {
					t.Fatalf("Multicast returned %d, want %d", got, want)
				}
			default:
				if got := tp.Multicast(s.from, s.m, nil); got != n-1 {
					t.Fatalf("Multicast to every rank returned %d, want %d", got, n-1)
				}
			}
		}
		var clocks []Time
		for _, s := range st.sends {
			for to := 0; to < n; to++ {
				clocks = append(clocks, max(tp.clock(s.from, to), eng.Now()))
			}
		}
		tr.Clocks = append(tr.Clocks, clocks)
	}
	run(script[0])
	for _, st := range script[1:] {
		eng.At(st.at, func() { run(st) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Steps = eng.Steps()
	tr.Counters = nw.Counters()
	for c := Channel(0); c < NumChannels; c++ {
		tr.Dropped[c] = nw.Dropped(c)
	}
	return tr, nw
}

// fanOutScript draws groups of up to perStep sends at instants before
// and after the crash plan's 50 ms cut, some shared by several steps: a
// third unicasts, possibly to self, the rest broadcasts — or multicasts
// over skipSet's sets when it is non-nil.
func fanOutScript(rng *RNG, n, perStep int, skipSet func(from int) []uint64) []netStep {
	var script []netStep
	for _, at := range []Time{0, 0, 20 * Microsecond, 20 * Microsecond, 0.01, 0.06, 0.06} {
		st := netStep{at: at}
		for k := 1 + rng.Intn(perStep); k > 0; k-- {
			s := netSend{from: rng.Intn(n), to: -1, m: Message{
				Channel: Channel(rng.Intn(int(NumChannels))),
				Kind:    1 + rng.Intn(4),
				Payload: len(script)*100 + k,
				Bytes:   float64(8 * (1 + rng.Intn(3))),
			}}
			if rng.Intn(3) == 0 {
				s.to = rng.Intn(n)
			} else if skipSet != nil {
				s.multi, s.skip = true, skipSet(s.from)
			}
			st.sends = append(st.sends, s)
		}
		script = append(script, st)
	}
	return script
}

// TestBroadcastEqualsSendLoop is the property the batched broadcast
// rests on: under every network model and every registered chaos plan,
// a Multicast with a nil skip set is observably the ascending loop of
// Sends to every other rank — per-recipient stamps, delivery order,
// engine events and every counter.
func TestBroadcastEqualsSendLoop(t *testing.T) {
	rng := NewRNG(17)
	plans := append([]string{"none"}, chaos.Names()...)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(70)
		cfg := NetworkConfig{
			Latency: 10 * Microsecond, IntraLatency: 3 * Microsecond,
			Bandwidth: 800e6, IntraBandwidth: 2e9,
			ProcsPerNode:     []int{1, 4, 32}[rng.Intn(3)],
			IngressBandwidth: []float64{0, 1.2e9}[rng.Intn(2)],
		}
		script := fanOutScript(rng, n, 5, nil)
		for _, name := range plans {
			plan, err := chaos.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = plan
			got, _ := play(t, n, cfg, script, viaMulticast)
			want, _ := play(t, n, cfg, script, viaSendLoop)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, n=%d, %+v, plan %s: the nil-skip Multicast and the Send loop differ:\n%d deliveries in %d steps, dropped %v\n%d deliveries in %d steps, dropped %v",
					trial, n, cfg, name, len(got.Delivered), got.Steps, got.Dropped, len(want.Delivered), want.Steps, want.Dropped)
			}
			if len(want.Delivered) == 0 {
				t.Fatalf("trial %d, plan %s: nothing delivered", trial, name)
			}
		}
	}
}

// TestMulticastMatchesSendLoop: Multicast is observably the ascending
// loop of Sends to the ranks its skip set leaves, under every network
// model and registered chaos plan — per-recipient stamps, delivery
// order, engine events, link clocks and every counter — and the dense
// link-clock oracle agrees. Skip sets run from nil (every rank) and
// empty through one recipient, all but one and random prunings, after
// unicasts that left exceptions in the senders' rows.
func TestMulticastMatchesSendLoop(t *testing.T) {
	rng := NewRNG(23)
	plans := append([]string{"none"}, chaos.Names()...)
	for trial := 0; trial < 16; trial++ {
		n := 2 + rng.Intn(140)
		words := (n + 63) / 64
		cfg := NetworkConfig{
			Latency: 10 * Microsecond, IntraLatency: 3 * Microsecond,
			Bandwidth: 800e6, IntraBandwidth: 2e9,
			ProcsPerNode:     []int{0, 1, 3, 4, 32}[rng.Intn(5)],
			IngressBandwidth: []float64{0, 1.2e9}[rng.Intn(2)],
		}
		skipSet := func(from int) []uint64 {
			skip := make([]uint64, words)
			set := func(r int) { skip[r/64] |= 1 << (r % 64) }
			switch rng.Intn(6) {
			case 0:
				return nil
			case 1: // empty
			case 2: // one recipient
				keep := rng.Intn(n)
				for r := 0; r < n; r++ {
					if r != keep {
						set(r)
					}
				}
			case 3: // all but one
				set(rng.Intn(n))
			default: // No_more_master pruning, the sender itself possibly in it
				p := []float64{0.2, 0.9}[rng.Intn(2)]
				for r := 0; r < n; r++ {
					if rng.Float64() < p {
						set(r)
					}
				}
			}
			return skip
		}
		script := fanOutScript(rng, n, 8, skipSet)
		for _, name := range plans {
			plan, err := chaos.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = plan
			got, _ := play(t, n, cfg, script, viaMulticast)
			for _, mode := range []playMode{viaSendLoop, viaDense} {
				want, _ := play(t, n, cfg, script, mode)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, n=%d, %+v, plan %s, oracle %d: Multicast differs:\n%d deliveries in %d steps, dropped %v\n%d deliveries in %d steps, dropped %v",
						trial, n, cfg, name, mode, len(got.Delivered), got.Steps, got.Dropped, len(want.Delivered), want.Steps, want.Dropped)
				}
			}
			if len(got.Delivered) == 0 {
				t.Fatalf("trial %d, plan %s: nothing delivered", trial, name)
			}
		}
	}
}

// TestMessageCopyOutlivesStorage pins the lifetime contract from the
// handler's side: a queued entry is only valid until it is dropped, and a
// copy taken there stays intact while the queue storage behind the
// pointer is recycled for later traffic.
func TestMessageCopyOutlivesStorage(t *testing.T) {
	const n, rounds = 6, 50
	type seen struct {
		ptr  *entry
		copy entry
	}
	var log []seen
	eng := NewEngine()
	rt := NewRuntime(eng, n, NetworkConfig{Latency: 1 * Microsecond}, peekApp(func(p *Proc, e *entry) {
		log = append(log, seen{e, *e})
	}))
	for round := 0; round < rounds; round++ {
		rt.Eng.At(Time(round), func() {
			rt.Net.Multicast(round%n, Message{Channel: StateChannel, Kind: round, Payload: round, Bytes: 8}, nil)
		})
	}
	rt.Start()
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != rounds*(n-1) {
		t.Fatalf("%d messages handled, want %d", len(log), rounds*(n-1))
	}
	reused := 0
	for i, s := range log {
		round := i / (n - 1)
		if int(s.copy.kind) != round || s.copy.payload != round || int(s.copy.from) != round%n {
			t.Fatalf("copy %d corrupted: %+v", i, s.copy)
		}
		if *s.ptr != s.copy {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no queue slot was reused: the test does not exercise the contract")
	}
}

// TestDeliveredMessageOutlivesBatch is the network-side twin: the
// *Message deliver receives is rebuilt from a compact run for every
// recipient, and a copy taken during the call keeps every field —
// recipient and arrival instant included — after the storage is reused.
func TestDeliveredMessageOutlivesBatch(t *testing.T) {
	const n, rounds = 6, 50
	const lat = 1 * Microsecond
	type seen struct {
		ptr  *Message
		copy Message
	}
	var log []seen
	eng := NewEngine()
	nw := NewNetwork(eng, n, NetworkConfig{Latency: lat}, func(m *Message) { log = append(log, seen{m, *m}) })
	for round := 0; round < rounds; round++ {
		eng.At(Time(round), func() {
			nw.Multicast(round%n, Message{Channel: StateChannel, Kind: round, Payload: round, Bytes: 8}, nil)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != rounds*(n-1) {
		t.Fatalf("%d messages delivered, want %d", len(log), rounds*(n-1))
	}
	reused := 0
	for i, s := range log {
		round, k := i/(n-1), i%(n-1)
		from := round % n
		to := k
		if to >= from {
			to++
		}
		want := Message{From: from, To: to, Channel: StateChannel, Kind: round, Payload: round, Bytes: 8, Arrived: Time(round) + lat}
		if s.copy != want {
			t.Fatalf("copy %d = %+v, want %+v", i, s.copy, want)
		}
		if *s.ptr != s.copy {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no delivery storage was reused: the test does not exercise the contract")
	}
}

// TestMessagePathAllocs pins the allocation budget of the message path,
// in the style of TestEngineEventAllocs.
func TestMessagePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Run("send-deliver-handle", func(t *testing.T) {
		// Steady state: a warm engine, batch pool and queue carry a
		// message from Send to HandleState without allocating.
		app := &countApp{}
		rt := newTestRuntime(2, app)
		payload := any(core.UpdatePayload{})
		cycle := func() {
			rt.Net.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: core.KindUpdate, Payload: payload, Bytes: core.BytesUpdate})
			if err := rt.Eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("Send → deliver → HandleState: %v allocs/op, want 0", allocs)
		}
		if app.state != 64+201 {
			t.Fatalf("%d messages handled, want %d", app.state, 64+201)
		}
	})
	t.Run("multicast", func(t *testing.T) {
		// Steady state: a pruned fan-out over warm rows, batches and
		// queues allocates nothing, its exception lists included.
		const n = 200
		app := &countApp{}
		rt := newTestRuntime(n, app)
		skip := prunedSet(n)
		payload := any(core.UpdatePayload{})
		sent := 0
		cycle := func() {
			rt.Net.Send(&Message{From: 0, To: 7, Channel: StateChannel, Kind: core.KindUpdate, Payload: payload, Bytes: core.BytesUpdate})
			sent += 1 + rt.Net.Multicast(0, Message{Channel: StateChannel, Kind: core.KindUpdate, Payload: payload, Bytes: core.BytesUpdate}, skip)
			if err := rt.Eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("Multicast → deliver → HandleState: %v allocs/op, want 0", allocs)
		}
		if app.state != sent {
			t.Fatalf("%d messages handled, want %d", app.state, sent)
		}
	})
	t.Run("storm", func(t *testing.T) {
		// The §2.3 storm: every rank announces No_more_master to every
		// other before the engine fires anything, so nothing is recycled
		// until the run drains.
		mallocs, bytes, msgs := broadcastStorm(t, 1024, nil)
		perMsg := func(v uint64) float64 { return float64(v) / float64(msgs) }
		if perMsg(mallocs) >= 0.1 || perMsg(bytes) >= 16 {
			t.Errorf("storm of %d messages: %.3f mallocs and %.1f heap bytes per message, want < 0.1 and < 16",
				msgs, perMsg(mallocs), perMsg(bytes))
		}
	})
}

// peekApp hands every state message to a handler still in its queue
// slot, then drops it: the storage-lifetime test looks at the slot.
type peekApp func(p *Proc, e *entry)

func (f peekApp) Step(p *Proc) {
	for e := p.stateQ.peek(); e != nil; e = p.stateQ.peek() {
		f(p, e)
		p.stateQ.drop()
	}
}

func (f peekApp) Poll(p *Proc) bool {
	f.Step(p)
	return false
}

// countApp counts treated state messages and does nothing else.
type countApp struct {
	appStub
	state int
}

func (a *countApp) HandleState(int, int, int, any)        { a.state++ }
func (a *countApp) HandleData(int, int, workload.DataMsg) {}
func (a *countApp) TryStart(int) bool                     { return false }
func (a *countApp) Blocked(int) bool                      { return false }

// prunedSet is a No_more_master set pruning every fourth rank of n, as
// a multicast's skip set.
func prunedSet(n int) []uint64 {
	skip := make([]uint64, (n+63)/64)
	for r := 3; r < n; r += 4 {
		skip[r/64] |= 1 << (r % 64)
	}
	return skip
}

// broadcastStorm has every one of n ranks send one state message at
// t = 0 on the default platform — No_more_master broadcasts for a nil
// skip set, Update multicasts pruned by it otherwise — runs the
// simulation to drain and returns what the whole run allocated and how
// many messages it handled.
func broadcastStorm(tb testing.TB, n int, skip []uint64) (mallocs, bytes uint64, msgs int) {
	app := &countApp{}
	eng := NewEngine()
	rt := NewRuntime(eng, n, DefaultNetwork(), newLoops(eng, n, app))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := 0
	for r := 0; r < n; r++ {
		if skip == nil {
			sent += rt.Net.Multicast(r, Message{Channel: StateChannel, Kind: core.KindNoMoreMaster, Bytes: core.BytesNoMoreMaster}, nil)
		} else {
			sent += rt.Net.Multicast(r, Message{Channel: StateChannel, Kind: core.KindUpdate, Bytes: core.BytesUpdate}, skip)
		}
	}
	rt.Start()
	if err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if want := n * (n - 1); skip == nil && sent != want || app.state != sent {
		tb.Fatalf("%d messages handled, %d sent, want %d", app.state, sent, want)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, app.state
}

// BenchmarkBroadcastStorm measures what one simulated message of the
// storm costs the host, end to end: broadcast or multicast, batch,
// deliver, queue, wake, handle.
func BenchmarkBroadcastStorm(b *testing.B) {
	const n = 1024
	for _, in := range []struct {
		name string
		skip []uint64
	}{{"broadcast", nil}, {"pruned-multicast", prunedSet(n)}} {
		b.Run(in.name, func(b *testing.B) {
			var mallocs, bytes uint64
			msgs := 0
			for i := 0; i < b.N; i++ {
				m, by, k := broadcastStorm(b, n, in.skip)
				mallocs, bytes, msgs = mallocs+m, bytes+by, msgs+k
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
			b.ReportMetric(float64(bytes)/float64(msgs), "B/msg")
			b.ReportMetric(float64(mallocs)/float64(msgs), "allocs/msg")
		})
	}
}
