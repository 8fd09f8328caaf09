package core

// Gossip is an epidemic load-dissemination mechanism, the first
// topology-native tenant of the neighbor-graph seam. Instead of
// broadcasting to all peers (naive) it originates a *rumor* — the
// origin's absolute load, versioned by a per-origin sequence number —
// and forwards it to a small fanout of neighbors; receivers apply the
// rumor if it is fresh and re-forward it until its TTL expires. On the
// complete graph this degenerates to a probabilistic subset of the
// naive broadcast; on sparse graphs it is the classic rumor-mongering
// scheme (cf. the VAA rumor exercise in the related repos) whose cost
// scales with fanout × TTL instead of n.
//
// Like the naive mechanism it has no reservation step: rumors carry
// absolute loads, so duplicates and reordering are idempotent per
// sequence number, and decisions rely on possibly-stale views.
type Gossip struct {
	n, rank  int
	cfg      Config
	my       Load
	lastSent Load
	view     *View
	deg      int // number of peers: cfg.Topo's degree, n-1 on full
	ttl      int32
	seq      int32   // my own rumor sequence, monotone
	seen     []int32 // highest sequence applied, per origin
	rng      splitmix64
	stats    Stats
}

// A rumor goes to gossipFanout neighbors per hop for ⌈log2 n⌉+2 hops
// by default — the standard epidemic budget that reaches every rank of
// a connected graph with high probability.
const gossipFanout = 2

func defaultGossipTTL(n int) int32 {
	ttl := int32(2)
	for v := 1; v < n; v <<= 1 {
		ttl++
	}
	return ttl
}

// NewGossip constructs the gossip mechanism.
func NewGossip(n, rank int, cfg Config) *Gossip {
	ttl := int32(cfg.GossipTTL)
	if ttl <= 0 {
		ttl = defaultGossipTTL(n)
	}
	return &Gossip{
		n: n, rank: rank, cfg: cfg,
		view: NewView(n),
		deg:  degree(cfg.Topo, n, rank),
		ttl:  ttl,
		seen: make([]int32, n),
		// The stream is a pure function of (rank, n): forwarding picks
		// the same neighbors in every runtime and every forked process.
		rng: splitmix64(uint64(rank)*0x9e3779b9 + uint64(n)),
	}
}

// Name implements Exchanger.
func (x *Gossip) Name() string { return string(MechGossip) }

// Init implements Exchanger.
func (x *Gossip) Init(ctx Context, initial Load) {
	x.my = initial
	x.lastSent = initial
	x.view.Set(x.rank, initial)
}

// LocalChange implements Exchanger: like the naive scheme every
// variation counts (no reservations to anticipate it), and a drift
// past the threshold originates a fresh rumor instead of a broadcast.
func (x *Gossip) LocalChange(ctx Context, delta Load, asSlave bool) {
	x.my = x.my.Add(delta)
	x.view.Set(x.rank, x.my)
	if !x.my.Sub(x.lastSent).ExceedsAny(x.cfg.Threshold) {
		return
	}
	x.seq++
	x.seen[x.rank] = x.seq
	x.lastSent = x.my
	x.forward(ctx, GossipPayload{Origin: int32(x.rank), Seq: x.seq, TTL: x.ttl, Load: x.my}, -1)
}

// forward sends the rumor to up to gossipFanout neighbors, skipping the rank
// it arrived from. Neighbor choice is pseudo-random but deterministic
// (per-rank splitmix stream), so sim runs reproduce exactly.
func (x *Gossip) forward(ctx Context, p GossipPayload, from int) {
	cands := make([]int, 0, x.deg)
	for to := range peers(x.cfg.Topo, x.n, x.rank) {
		if to != from && to != int(p.Origin) {
			cands = append(cands, to)
		}
	}
	k := min(gossipFanout, len(cands))
	// Partial Fisher-Yates over the candidate list: the first k slots
	// are a uniform sample without replacement.
	for i := 0; i < k; i++ {
		j := i + int(x.rng.next()%uint64(len(cands)-i))
		cands[i], cands[j] = cands[j], cands[i]
		ctx.Send(cands[i], KindGossip, p, BytesGossip)
		x.stats.UpdatesSent++
	}
}

// Local implements Exchanger.
func (x *Gossip) Local() Load { return x.my }

// View implements Exchanger.
func (x *Gossip) View() *View { return x.view }

// Acquire implements Exchanger: gossip maintains its (epidemic,
// eventually-consistent) view, so it is always ready.
func (x *Gossip) Acquire(ctx Context, ready func()) { ready() }

// Commit implements Exchanger: like the naive scheme, nothing is
// published at decision time; only the master's own estimates move.
func (x *Gossip) Commit(ctx Context, assignments []Assignment) {
	for _, a := range assignments {
		if int(a.Proc) == x.rank {
			x.my = x.my.Add(a.Delta)
			x.view.Set(x.rank, x.my)
			continue
		}
		x.view.AddTo(int(a.Proc), a.Delta)
	}
}

// NoMoreMaster implements Exchanger: a no-op. Epidemic dissemination
// needs every rank as a relay, so a rank that will never decide again
// still forwards rumors — pruning it would partition the rumor flow.
func (x *Gossip) NoMoreMaster(ctx Context) {}

// HandleMessage implements Exchanger.
func (x *Gossip) HandleMessage(ctx Context, from int, kind int, payload any) {
	if kind != KindGossip {
		return
	}
	p := payload.(GossipPayload)
	o := int(p.Origin)
	if o < 0 || o >= x.n || o == x.rank {
		return
	}
	if p.Seq <= x.seen[o] {
		return // stale or duplicate rumor: already applied
	}
	x.seen[o] = p.Seq
	x.view.Set(o, p.Load)
	if p.TTL > 1 {
		p.TTL--
		x.forward(ctx, p, from)
	}
}

// Busy implements Exchanger: never blocks the application.
func (x *Gossip) Busy() bool { return false }

// Stats implements Exchanger.
func (x *Gossip) Stats() Stats { return x.stats }
