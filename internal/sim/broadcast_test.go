package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/workload"
)

// netSend is one scripted transmission: to < 0 broadcasts.
type netSend struct {
	from, to int
	m        Message
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
}

// playMode selects how play transmits a script.
type playMode int

const (
	viaBroadcast playMode = iota // Network.Send and Network.Broadcast
	viaSendLoop                  // every broadcast as its ascending loop of Sends
	viaDense                     // the network's send over the dense link-clock oracle
)

// transport is what a script is played through.
type transport interface {
	Send(m *Message)
	Broadcast(from int, template Message) int
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
					if to != s.from {
						m := s.m
						m.From, m.To = s.from, to
						tp.Send(&m)
					}
				}
			default:
				if got := tp.Broadcast(s.from, s.m); got != n-1 {
					t.Fatalf("Broadcast returned %d, want %d", got, n-1)
				}
			}
		}
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

// TestBroadcastEqualsSendLoop is the property the batched broadcast
// rests on: under every network model and every registered chaos plan,
// Broadcast is observably the ascending loop of Sends — per-recipient
// stamps, delivery order, engine events and every counter.
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
		// Instants before and after the crash plan's 50 ms cut, some
		// shared by several steps.
		instants := []Time{0, 0, 20 * Microsecond, 20 * Microsecond, 0.01, 0.06, 0.06}
		var script []netStep
		for _, at := range instants {
			st := netStep{at: at}
			for k := 1 + rng.Intn(5); k > 0; k-- {
				s := netSend{from: rng.Intn(n), to: -1, m: Message{
					Channel: Channel(rng.Intn(int(NumChannels))),
					Kind:    1 + rng.Intn(4),
					Payload: len(script)*100 + k,
					Bytes:   float64(8 * (1 + rng.Intn(3))),
				}}
				if rng.Intn(3) == 0 {
					s.to = rng.Intn(n) // unicast, possibly to self
				}
				st.sends = append(st.sends, s)
			}
			script = append(script, st)
		}
		for _, name := range plans {
			plan, err := chaos.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = plan
			got, _ := play(t, n, cfg, script, viaBroadcast)
			want, _ := play(t, n, cfg, script, viaSendLoop)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, n=%d, %+v, plan %s: Broadcast and the Send loop differ:\n%d deliveries in %d steps, dropped %v\n%d deliveries in %d steps, dropped %v",
					trial, n, cfg, name, len(got.Delivered), got.Steps, got.Dropped, len(want.Delivered), want.Steps, want.Dropped)
			}
			if len(want.Delivered) == 0 {
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
			rt.Broadcast(round%n, Message{Channel: StateChannel, Kind: round, Payload: round, Bytes: 8})
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
			nw.Broadcast(round%n, Message{Channel: StateChannel, Kind: round, Payload: round, Bytes: 8})
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
			rt.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: core.KindUpdate, Payload: payload, Bytes: core.BytesUpdate})
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
	t.Run("storm", func(t *testing.T) {
		// The §2.3 storm: every rank announces No_more_master to every
		// other before the engine fires anything, so nothing is recycled
		// until the run drains.
		mallocs, bytes, msgs := broadcastStorm(t, 1024)
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

// broadcastStorm has every one of n ranks broadcast No_more_master at
// t = 0 on the default platform, runs the simulation to drain and returns
// what the whole run allocated and how many messages it handled.
func broadcastStorm(tb testing.TB, n int) (mallocs, bytes uint64, msgs int) {
	app := &countApp{}
	eng := NewEngine()
	rt := NewRuntime(eng, n, DefaultNetwork(), newLoops(eng, n, app))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < n; r++ {
		rt.Broadcast(r, Message{Channel: StateChannel, Kind: core.KindNoMoreMaster, Bytes: core.BytesNoMoreMaster})
	}
	rt.Start()
	if err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if app.state != n*(n-1) {
		tb.Fatalf("%d messages handled, want %d", app.state, n*(n-1))
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, app.state
}

// BenchmarkBroadcastStorm measures what one simulated message of the
// storm costs the host, end to end: broadcast, batch, deliver, queue,
// wake, handle.
func BenchmarkBroadcastStorm(b *testing.B) {
	const n = 1024
	var mallocs, bytes uint64
	msgs := 0
	for i := 0; i < b.N; i++ {
		m, by, k := broadcastStorm(b, n)
		mallocs, bytes, msgs = mallocs+m, bytes+by, msgs+k
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(bytes)/float64(msgs), "B/msg")
	b.ReportMetric(float64(mallocs)/float64(msgs), "allocs/msg")
}
