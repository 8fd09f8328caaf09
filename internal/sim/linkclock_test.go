package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

// denseLinks is the n² link-clock array the per-sender rows replaced,
// kept as the oracle. It drives the network's own send with every link's
// clock stored and every message priced on its own link, so anything
// the rows or a fan-out's shared pricing forget or misplace shows as a
// different arrival instant or batch boundary.
type denseLinks struct {
	nw   *Network
	free []Time
}

func newDenseLinks(nw *Network) *denseLinks {
	return &denseLinks{nw: nw, free: make([]Time, nw.n*nw.n)}
}

func (d *denseLinks) Send(m *Message) {
	d.nw.checkRanks(m.From, m.To)
	li := m.From*d.nw.n + m.To
	d.free[li], _ = d.nw.send(m, d.free[li], d.nw.cost(d.nw.sameNode(m.From, m.To), m.Bytes), false)
}

func (d *denseLinks) Multicast(from int, template Message, skip []uint64) int {
	template.From = from
	sameRun, sent := false, 0
	for to := 0; to < d.nw.n; to++ {
		if to == from || skipped(skip, to) {
			continue
		}
		template.To = to
		li := from*d.nw.n + to
		var ok bool
		d.free[li], ok = d.nw.send(&template, d.free[li], d.nw.cost(d.nw.sameNode(from, to), template.Bytes), sameRun)
		sameRun, sent = sameRun || ok, sent+1
	}
	return sent
}

func (d *denseLinks) clock(from, to int) Time { return d.free[from*d.nw.n+to] }

// linkScript draws a script that keeps many link clocks ahead of now at
// once: a t = 0 storm in which every rank broadcasts, then same-instant
// bursts of unicasts and broadcasts of mixed sizes — some inside the
// transfer windows the storm opened, some after every clock has passed,
// some after the crash plan's 50 ms cut.
func linkScript(rng *RNG, n int) []netStep {
	sizes := []float64{8, 96, 4096, 1 << 20}
	storm := netStep{}
	for r := 0; r < n; r++ {
		storm.sends = append(storm.sends, netSend{from: r, to: -1, m: Message{Channel: StateChannel, Kind: 1, Bytes: 8}})
	}
	script := []netStep{storm}
	for _, at := range []Time{0, 0, 1 * Microsecond, 1 * Microsecond, 40 * Microsecond, 0.002, 0.002, 0.01, 0.06, 0.06, 2} {
		st := netStep{at: at}
		for k := 1 + rng.Intn(n); k > 0; k-- {
			s := netSend{from: rng.Intn(n), to: -1, m: Message{
				Channel: Channel(rng.Intn(int(NumChannels))),
				Kind:    1 + rng.Intn(4),
				Payload: len(script)*1000 + k,
				Bytes:   sizes[rng.Intn(len(sizes))],
			}}
			if rng.Intn(2) == 0 {
				s.to = rng.Intn(n) // unicast, possibly to self
			}
			st.sends = append(st.sends, s)
		}
		script = append(script, st)
	}
	return script
}

// TestLinkClocksMatchDenseOracle plays seeded scripts through the
// per-sender rows and through the dense n² oracle, under every network
// model and chaos plan, and asks for the same arrival instant for every
// message, the same batch boundaries and the same counters.
func TestLinkClocksMatchDenseOracle(t *testing.T) {
	plans := []*chaos.Plan{nil}
	for _, name := range chaos.Names() {
		plan, err := chaos.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	// Half of all state messages lost: many dropped recipients, each an
	// exception to its broadcast's class clock.
	heavy, _ := chaos.Get("loss")
	heavy.Loss = 0.5
	plans = append(plans, heavy)

	rng := NewRNG(33)
	exceptions := 0
	for trial := 0; trial < 24; trial++ {
		n := 2 + rng.Intn(40)
		cfg := NetworkConfig{
			Latency: 10 * Microsecond, IntraLatency: 3 * Microsecond,
			Bandwidth:        []float64{0, 800e6}[rng.Intn(2)],
			IntraBandwidth:   []float64{0, 2e9}[rng.Intn(2)],
			ProcsPerNode:     []int{0, 1, 3, 4, 32}[rng.Intn(5)],
			IngressBandwidth: []float64{0, 1.2e9}[rng.Intn(2)],
		}
		script := linkScript(rng, n)
		for _, plan := range plans {
			cfg.Chaos = plan
			got, nw := play(t, n, cfg, script, viaMulticast)
			want, _ := play(t, n, cfg, script, viaDense)
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < min(len(got.Delivered), len(want.Delivered)) &&
					got.Delivered[i] == want.Delivered[i] && got.Event[i] == want.Event[i] {
					i++
				}
				t.Fatalf("trial %d, n=%d, %+v, plan %+v: rows and dense oracle differ at delivery %d of %d/%d",
					trial, n, cfg, plan, i, len(got.Delivered), len(want.Delivered))
			}
			for _, r := range nw.links {
				exceptions += len(r.exc)
			}
		}
	}
	if exceptions == 0 {
		t.Fatal("no link ever held an exception: the scripts do not exercise the rows")
	}
}

// TestNewNetworkIsLinear: the link clocks of 8192 ranks are one row per
// sender, not 8192² float64s (512 MB).
func TestNewNetworkIsLinear(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw := NewNetwork(NewEngine(), 8192, DefaultNetwork(), func(*Message) {})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nw)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewNetwork at 8192 ranks allocated %.1f MB, want < 1 MB", float64(got)/(1<<20))
	}
}

// TestStormRowsStayShort pins what the rows hold through the §2.3 storm
// of a 1024-rank run: after every rank broadcasts at t = 0 the rows are
// their class clocks alone, each unicast inside the storm's transfer
// window adds at most one exception, and once every clock has passed a
// row empties on its sender's next send.
func TestStormRowsStayShort(t *testing.T) {
	const n, unicasts = 1024, 3 * 1024
	eng := NewEngine()
	nw := NewNetwork(eng, n, DefaultNetwork(), func(*Message) {})
	live := func() (total, widest int) {
		for _, r := range nw.links {
			total, widest = total+len(r.exc), max(widest, len(r.exc))
		}
		return total, widest
	}
	for r := 0; r < n; r++ {
		nw.Multicast(r, Message{Channel: StateChannel, Kind: core.KindNoMoreMaster, Bytes: core.BytesNoMoreMaster}, nil)
	}
	if total, _ := live(); total != 0 {
		t.Fatalf("the storm left %d exceptions, want 0", total)
	}
	rng := NewRNG(5)
	for i := 0; i < unicasts; i++ {
		nw.Send(&Message{From: rng.Intn(n), To: rng.Intn(n), Channel: StateChannel, Kind: core.KindUpdate, Bytes: core.BytesUpdate})
	}
	if total, _ := live(); total == 0 || total > unicasts {
		t.Fatalf("%d unicasts in the storm window left %d exceptions, want 1..%d", unicasts, total, unicasts)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		nw.Send(&Message{From: r, To: (r + 1) % n, Channel: StateChannel, Kind: core.KindUpdate, Bytes: core.BytesUpdate})
	}
	if _, widest := live(); widest > 1 {
		t.Fatalf("after the clocks passed a row holds %d exceptions, want at most the one just sent", widest)
	}
}
