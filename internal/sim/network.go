package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/chaos"
	"repro/internal/core"
)

// NetworkConfig describes the interconnect of the simulated platform.
//
// The paper's platform (IBM SP at IDRIS) is a cluster of SMP nodes: either
// 4-way or 32-way nodes, with a fast intra-node fabric and a slower
// inter-node network. ProcsPerNode models that grouping; processes p and q
// are on the same node when p/ProcsPerNode == q/ProcsPerNode.
type NetworkConfig struct {
	// Latency is the one-way latency between processes on different nodes.
	Latency Duration
	// IntraLatency is the one-way latency within a node. Zero means
	// "same as Latency".
	IntraLatency Duration
	// Bandwidth is the per-link bandwidth in bytes per second of virtual
	// time. Zero means infinite (messages incur latency only).
	Bandwidth float64
	// IntraBandwidth is the intra-node per-link bandwidth; zero means
	// "same as Bandwidth".
	IntraBandwidth float64
	// ProcsPerNode groups processes into SMP nodes; zero or one means
	// every process is its own node.
	ProcsPerNode int
	// IngressBandwidth, when non-zero, serializes all traffic entering a
	// process at this rate (bytes/second). This models NIC/receive-side
	// contention: when many processes restart communication simultaneously
	// (e.g. after a snapshot completes, §4.5) their messages queue at the
	// receiver.
	IngressBandwidth float64
	// Chaos, when non-nil, injects delivery faults (delay jitter,
	// reordering, loss, slow rank, rank crash) per the plan, in virtual
	// time. A pointer so NetworkConfig stays ==-comparable.
	Chaos *chaos.Plan
}

// Normalized returns the config with the zero value replaced by
// DefaultNetwork, preserving an attached chaos plan: a config that only
// names a fault plan still means "the default platform" with it
// attached.
func (c NetworkConfig) Normalized() NetworkConfig {
	base := c
	base.Chaos = nil
	if base == (NetworkConfig{}) {
		base = DefaultNetwork()
	}
	base.Chaos = c.Chaos
	return base
}

// DefaultNetwork returns a configuration resembling a early-2000s cluster
// with a high-bandwidth/low-latency interconnect (the paper notes the IDRIS
// network is "very high bandwidth / low latency").
func DefaultNetwork() NetworkConfig {
	return NetworkConfig{
		Latency:          10 * Microsecond,
		IntraLatency:     3 * Microsecond,
		Bandwidth:        800e6, // 800 MB/s
		IntraBandwidth:   2e9,
		ProcsPerNode:     32,
		IngressBandwidth: 1.2e9,
	}
}

// HighLatencyNetwork returns a configuration for the paper's closing
// discussion: links with high latency / low bandwidth, where the cost of
// maintaining the view with many small messages becomes visible.
func HighLatencyNetwork() NetworkConfig {
	return NetworkConfig{
		Latency:          500 * Microsecond,
		IntraLatency:     5 * Microsecond,
		Bandwidth:        40e6,
		IntraBandwidth:   1e9,
		ProcsPerNode:     4,
		IngressBandwidth: 80e6,
	}
}

// Network models point-to-point FIFO links between n processes. Each
// ordered pair (from, to) is an independent link: messages on it are
// serialized (bandwidth) and delivered in order, which the snapshot
// algorithm of §3 requires (Chandy–Lamport assumes FIFO channels).
//
// A link's clock (when it is free again) is information only while it is
// ahead of now, and the clocks leaving one sender are nearly uniform:
// every rank broadcasts, and a broadcast moves all of the sender's links
// of one class (intra- or inter-node) to the same instant. So the clocks
// are held as one linkRow per sender — a clock per class plus the few
// links that differ — and the network's memory grows with n and with the
// messages in flight, not with n².
type Network struct {
	eng     *Engine
	cfg     NetworkConfig
	n       int
	deliver func(*Message)

	// links[from] holds the clocks of every link leaving from.
	links []linkRow
	// excSpare is the exception list Multicast builds a row's new one in;
	// it swaps with the row's old list, so rebuilding allocates nothing
	// once the lists have grown.
	excSpare []linkExc
	// ingressFree[to] is the time the receiver NIC becomes available.
	ingressFree []Time

	// cnt tallies every message sent (after chaos drops): state
	// traffic per kind, data and ctrl traffic as totals.
	cnt core.Counters

	// Delivery batching: messages scheduled back to back for the same
	// virtual instant share one engine event (a broadcast fan-out lands
	// as a handful of events instead of n-1). pending is the open batch;
	// it accepts another message only while pendingSeq still equals the
	// engine's next sequence number, which proves no other event was
	// scheduled in between — so batched delivery is observably identical
	// to one event per message. Records and closures are pooled; closing
	// the open batch moves its runs to an exact-size array from spare.
	pending     *delivery
	pendingSeq  uint64
	open        []run
	spare       [][][]run // spare[k]: free run arrays of length k
	freeBatches []*delivery
	// msg is the message fire hands to deliver, rebuilt from the compact
	// run it is stored in. A field rather than a local: deliver is a func
	// value, so a pointer to a local would move it to the heap per batch.
	msg Message

	// Fault-injection state (nil/empty without an active chaos plan).
	chaosRNG *chaos.RNG
	// lastArrive[from*n+to] keeps delivery FIFO per link under delay
	// jitter unless the plan permits reordering.
	lastArrive []Time
	// dropped counts chaos-discarded messages, indexed by channel.
	dropped [NumChannels]int64
	// rec, when non-nil, receives one EvState per state message sent.
	rec *chaos.Recorder
}

// NewNetwork creates a network of n processes delivering messages through
// deliver (typically Runtime.arrive). The *Message passed to deliver is
// storage the network reuses: it is valid only during the call, and a
// deliver that keeps the message copies it.
func NewNetwork(eng *Engine, n int, cfg NetworkConfig, deliver func(*Message)) *Network {
	return new(Network).init(eng, n, cfg, deliver)
}

// init starts nw afresh, keeping the storage an earlier, drained run
// grew: link rows, exception lists and delivery batches.
func (nw *Network) init(eng *Engine, n int, cfg NetworkConfig, deliver func(*Message)) *Network {
	if n <= 0 {
		panic("sim: network needs at least one process")
	}
	links, ingress := resized(nw.links, n), resized(nw.ingressFree, n)
	for i := range links {
		links[i] = linkRow{exc: links[i].exc[:0]}
	}
	clear(ingress)
	*nw = Network{
		eng: eng, cfg: cfg, n: n, deliver: deliver,
		links: links, excSpare: nw.excSpare[:0], ingressFree: ingress,
		open: nw.open[:0], spare: nw.spare, freeBatches: nw.freeBatches,
	}
	if cfg.Chaos.Active() {
		nw.chaosRNG = cfg.Chaos.RNGFor(n)
		if cfg.Chaos.Delay > 0 && !cfg.Chaos.Reorder {
			nw.lastArrive = make([]Time, n*n)
		}
	}
	return nw
}

// N returns the number of processes.
func (nw *Network) N() int { return nw.n }

// sameNode reports whether two ranks share an SMP node.
func (nw *Network) sameNode(a, b int) bool {
	p := nw.cfg.ProcsPerNode
	if p <= 1 {
		return a == b
	}
	return a/p == b/p
}

// node returns the ranks [lo, hi) sharing r's SMP node.
func (nw *Network) node(r int) (lo, hi int) {
	p := nw.cfg.ProcsPerNode
	if p <= 1 {
		return r, r + 1
	}
	lo = r / p * p
	return lo, min(lo+p, nw.n)
}

// The link classes: the links of one class leaving a sender share a
// clock until something other than a broadcast moves one of them.
const (
	interLink = iota // to another SMP node
	intraLink        // to another rank of the sender's node
	selfLink         // to the sender itself, which no broadcast touches
	numLinkClasses
)

// linkClass returns the class of the link from a to b.
func (nw *Network) linkClass(a, b int) int {
	switch {
	case a == b:
		return selfLink
	case nw.sameNode(a, b):
		return intraLink
	}
	return interLink
}

// cost returns the latency and transfer time of a message of the given
// size on a link of the given class.
func (nw *Network) cost(intra bool, bytes float64) (lat, xfer Duration) {
	lat = nw.cfg.Latency
	bw := nw.cfg.Bandwidth
	if intra {
		if nw.cfg.IntraLatency > 0 {
			lat = nw.cfg.IntraLatency
		}
		if nw.cfg.IntraBandwidth > 0 {
			bw = nw.cfg.IntraBandwidth
		}
	}
	if bw > 0 {
		xfer = Duration(bytes / bw)
	}
	return lat, xfer
}

// checkRanks panics on a rank outside the network.
func (nw *Network) checkRanks(from, to int) {
	if to < 0 || to >= nw.n || from < 0 || from >= nw.n {
		panic(fmt.Sprintf("sim: send with bad ranks from=%d to=%d n=%d", from, to, nw.n))
	}
}

// Send transmits m asynchronously. Delivery time accounts for link
// occupancy (FIFO per ordered pair), latency, transfer time and receiver
// ingress serialization. Sending to self delivers after the intra latency.
// The network copies m; the caller's message does not escape.
func (nw *Network) Send(m *Message) {
	nw.checkRanks(m.From, m.To)
	now := nw.eng.Now()
	row := nw.row(m.From, now)
	c := nw.linkClass(m.From, m.To)
	i, ok := row.find(m.To)
	clock := row.class[c]
	if ok {
		clock = row.exc[i].clock
	}
	clock, _ = nw.send(m, clock, c != interLink, false)
	// The link keeps an exception only while its clock differs from its
	// class clock.
	switch {
	case sameClock(clock, row.class[c], now):
		if ok {
			row.exc = slices.Delete(row.exc, i, i+1)
		}
	case ok:
		row.exc[i].clock = clock
	default:
		row.exc = slices.Insert(row.exc, i, linkExc{int32(m.To), clock})
	}
	row.hi = max(row.hi, clock)
}

// send is Send for one recipient whose link is free at link; intra says
// the two ranks share a node (the caller knows the link's class). It
// returns the link's clock after m (unchanged when m never occupied it).
// sameRun says the previous message this caller scheduled differs from m
// only in To (a Multicast in progress), so m may share that message's
// batch header. The bool reports whether m was scheduled (false: a chaos
// plan discarded it).
func (nw *Network) send(m *Message, link Time, intra, sameRun bool) (Time, bool) {
	now := nw.eng.Now()
	plan := nw.cfg.Chaos
	faulted := nw.chaosRNG != nil && m.From != m.To
	if nw.rec != nil && m.Channel == StateChannel {
		// Before any chaos drop, as the TCP runtime records it.
		nw.rec.Record(chaos.Event{Ev: chaos.EvState, Rank: m.From, Peer: m.To, Kind: int32(m.Kind)})
	}

	// Nothing leaves a crashed rank, and lossy links drop eligible
	// messages before they occupy any bandwidth. Local delivery
	// (From == To) is never faulted: a process does not lose messages
	// to itself.
	if faulted {
		if plan.CrashedAt(float64(now), m.From, m.From) || plan.Drops(chaosClass(m.Channel), nw.chaosRNG) {
			nw.dropped[m.Channel]++
			return link, false
		}
	}

	lat, xfer := nw.cost(intra, m.Bytes)
	if faulted && plan.SlowsLink(m.From, m.To) && plan.SlowFactor > 1 {
		lat = Duration(float64(lat) * plan.SlowFactor)
		xfer = Duration(float64(xfer) * plan.SlowFactor)
	}

	link = max(link, now) + xfer
	arrive := link + lat
	if nw.cfg.IngressBandwidth > 0 {
		ing := Duration(m.Bytes / nw.cfg.IngressBandwidth)
		if nw.ingressFree[m.To] > arrive {
			arrive = nw.ingressFree[m.To]
		}
		arrive += ing
		nw.ingressFree[m.To] = arrive
	}

	if faulted {
		// Delay jitter, FIFO-clamped per link unless the plan permits
		// reordering; then the receive-side crash cut — nothing arrives
		// at a crashed rank.
		arrive += Duration(plan.DelayFor(nw.chaosRNG))
		if nw.lastArrive != nil {
			li := m.From*nw.n + m.To
			if nw.lastArrive[li] > arrive {
				arrive = nw.lastArrive[li]
			}
			nw.lastArrive[li] = arrive
		}
		if plan.CrashedAt(float64(arrive), m.To, m.To) {
			nw.dropped[m.Channel]++
			return link, false
		}
	}

	switch m.Channel {
	case StateChannel:
		nw.cnt.AddState(m.Kind, m.Bytes)
	case DataChannel:
		nw.cnt.AddData(m.Bytes)
	case CtrlChannel:
		nw.cnt.AddCtrl(m.Bytes)
	}

	nw.schedule(m, arrive, sameRun)
	return link, true
}

// linkRow holds the clocks of every link leaving one sender. A link
// without an exception is at the clock of its class; exc lists the links
// whose clock differs, ascending by recipient. Clocks at or before now
// all mean "free now", so they compare equal (sameClock) and a row whose
// every clock is past (hi <= now) drops its exceptions.
type linkRow struct {
	class [numLinkClasses]Time
	// hi bounds every clock stored in the row since it was last emptied.
	hi  Time
	exc []linkExc
}

// linkExc is one link whose clock differs from its class clock.
type linkExc struct {
	to    int32
	clock Time
}

// sameClock reports whether two link clocks mean the same at now: equal,
// or both free by now. That is max(a, now) == max(b, now) for every
// non-NaN clock, without the NaN and signed-zero handling of the float
// max that Multicast would pay per recipient.
func sameClock(a, b, now Time) bool { return a == b || (a <= now && b <= now) }

// row returns from's clocks, emptied of exceptions when none is ahead
// of now.
func (nw *Network) row(from int, now Time) *linkRow {
	r := &nw.links[from]
	if r.hi <= now {
		r.exc = r.exc[:0]
	}
	return r
}

// find returns where the exception of to is, or would be inserted. A
// sender's unicasts mostly go out in ascending rank order (a flush to
// the masters left), so appending is checked first.
func (r *linkRow) find(to int) (int, bool) {
	if n := len(r.exc); n == 0 || int(r.exc[n-1].to) < to {
		return n, false
	}
	return slices.BinarySearchFunc(r.exc, int32(to), func(e linkExc, to int32) int { return cmp.Compare(e.to, to) })
}

// delivery is a reusable batch of messages arriving at one virtual
// instant, held as runs so that a broadcast whose recipients share an
// arrival instant is one header, not one message per recipient. The
// closure is built once, so scheduling a delivery allocates nothing in
// steady state.
type delivery struct {
	at   Time
	runs []run // one run aliases one; more come from the network's spare
	one  [1]run
	fn   func()
}

// run is one message going to the consecutive ranks to..end-1 (a unicast
// is a run of one), held in 48 bytes rather than a Message's 64: ranks
// and kinds fit 32 bits, and the arrival instant is the delivery's.
type run struct {
	payload             any
	bytes               float64
	from, to, end, kind int32
	channel             Channel
}

// schedule hands m to the engine for delivery at arrive, joining the
// open batch when that is provably order-preserving (same instant,
// consecutive engine sequence numbers) and, within it, the last run when
// sameRun says that run's header is m's and m.To is the rank it stops at.
func (nw *Network) schedule(m *Message, arrive Time, sameRun bool) {
	d := nw.pending
	if d == nil || d.at != arrive || nw.eng.Seq() != nw.pendingSeq {
		nw.closeBatch()
		if n := len(nw.freeBatches); n > 0 {
			d = nw.freeBatches[n-1]
			nw.freeBatches[n-1] = nil
			nw.freeBatches = nw.freeBatches[:n-1]
		} else {
			d = &delivery{}
			d.fn = func() { nw.fire(d) }
		}
		d.at = arrive
		nw.eng.At(arrive, d.fn)
		nw.pending, nw.pendingSeq = d, nw.eng.Seq()
	} else if last := &nw.open[len(nw.open)-1]; sameRun && last.end == int32(m.To) {
		last.end++
		return
	}
	nw.open = append(nw.open, run{
		payload: m.Payload, bytes: m.Bytes,
		from: int32(m.From), to: int32(m.To), end: int32(m.To) + 1, kind: int32(m.Kind),
		channel: m.Channel,
	})
}

// resized returns s at length n, on its own array when that is long enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// closeBatch ends the open batch, moving its runs out of open.
func (nw *Network) closeBatch() {
	d, k := nw.pending, len(nw.open)
	if d == nil {
		return
	}
	nw.spare = append(nw.spare, make([][][]run, max(0, k+1-len(nw.spare)))...)
	if k == 1 {
		d.runs = d.one[:]
	} else if s := nw.spare[k]; len(s) > 0 {
		d.runs, nw.spare[k] = s[len(s)-1], s[:len(s)-1]
	} else {
		d.runs = make([]run, k)
	}
	copy(d.runs, nw.open)
	nw.open, nw.pending = nw.open[:0], nil
}

// fire delivers a batch in send order and recycles the record.
func (nw *Network) fire(d *delivery) {
	if nw.pending == d {
		nw.closeBatch()
	}
	m := &nw.msg
	for i := range d.runs {
		r := &d.runs[i]
		*m = Message{
			From: int(r.from), Channel: r.channel, Kind: int(r.kind),
			Payload: r.payload, Bytes: r.bytes, Arrived: d.at,
		}
		for to := r.to; to < r.end; to++ {
			m.To = int(to)
			nw.deliver(m)
		}
	}
	m.Payload = nil
	clear(d.runs)
	if len(d.runs) > 1 {
		nw.spare[len(d.runs)] = append(nw.spare[len(d.runs)], d.runs)
	}
	d.runs = nil
	nw.freeBatches = append(nw.freeBatches, d)
}

// Multicast sends the template message to every rank except from and
// the ranks whose bit is set in skip (bit r of word r/64; nil skips
// none), in ascending rank order — observably that loop of Sends, with
// consecutive recipients that share an arrival instant batched under
// one header — and returns the number of recipients. Payload is shared
// across them; payloads must therefore be treated as immutable by
// receivers.
//
// With nothing skipped the class clocks move in bulk, so only links that
// end elsewhere become exceptions (earlier exceptions, slow links, chaos
// drops). Otherwise they stay, or every skipped link would become one;
// the pass walks the recipients word by word and merges their clocks
// into the exception list: O(n/64 + recipients + exceptions).
func (nw *Network) Multicast(from int, template Message, skip []uint64) int {
	nw.checkRanks(from, from)
	now := nw.eng.Now()
	row := nw.row(from, now)
	lo, hi := nw.node(from)
	was := row.class
	if skip == nil && hi-lo > 1 {
		_, xfer := nw.cost(true, template.Bytes)
		row.class[intraLink] = max(was[intraLink], now) + xfer
	}
	if skip == nil && hi-lo < nw.n {
		_, xfer := nw.cost(false, template.Bytes)
		row.class[interLink] = max(was[interLink], now) + xfer
	}
	exc, old := nw.excSpare[:0], row.exc
	template.From = from
	sameRun, sent := false, 0
	for base := 0; base < nw.n; base += 64 {
		word := ^uint64(0)
		if w := base / 64; w < len(skip) {
			word = ^skip[w]
		}
		if from-base < 64 && from >= base {
			word &^= 1 << (from - base)
		}
		if nw.n-base < 64 {
			word &= 1<<(nw.n-base) - 1
		}
		for ; word != 0; word &= word - 1 {
			to := base + bits.TrailingZeros64(word)
			for len(old) > 0 && int(old[0].to) < to {
				exc, old = append(exc, old[0]), old[1:]
			}
			c := interLink
			if lo <= to && to < hi {
				c = intraLink
			}
			clock := was[c]
			if len(old) > 0 && int(old[0].to) == to {
				clock, old = old[0].clock, old[1:]
			}
			template.To = to
			var ok bool
			clock, ok = nw.send(&template, clock, c == intraLink, sameRun)
			sameRun = sameRun || ok
			if !sameClock(clock, row.class[c], now) {
				exc = append(exc, linkExc{int32(to), clock})
				row.hi = max(row.hi, clock)
			}
			sent++
		}
	}
	row.hi = max(row.hi, row.class[interLink], row.class[intraLink])
	nw.excSpare, row.exc = row.exc[:0], append(exc, old...)
	return sent
}

// chaosClass maps a simulator channel onto the chaos traffic classes.
func chaosClass(c Channel) chaos.Class {
	switch c {
	case StateChannel:
		return chaos.ClassState
	case DataChannel:
		return chaos.ClassData
	case CtrlChannel:
		return chaos.ClassCtrl
	}
	return chaos.ClassOther
}

// Dropped returns how many messages on a channel the chaos plan
// discarded (loss or crash); always zero without an active plan.
func (nw *Network) Dropped(c Channel) int64 { return nw.dropped[c] }

// Counters returns the traffic sent so far: state messages per kind,
// data and ctrl messages as totals. Messages a chaos plan discarded are
// not in it (see Dropped).
func (nw *Network) Counters() core.Counters { return nw.cnt }
