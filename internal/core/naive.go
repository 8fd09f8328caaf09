package core

// Naive is the mechanism of §2.1 (Algorithm 2): every process knows its
// own load; whenever it drifted by more than the threshold since the last
// broadcast, the absolute value is re-broadcast. Nothing anticipates the
// effect of a dynamic decision, so two masters selecting slaves in a
// short window can both count a victim as idle (Figure 1) — the
// limitation the experiments of §4.4 expose.
type Naive struct {
	n, rank  int
	cfg      Config
	my       Load
	lastSent Load
	view     *View
	noMore   rankSet // ranks that declared No_more_master
	stats    Stats
}

// NewNaive constructs the naive mechanism.
func NewNaive(n, rank int, cfg Config) *Naive {
	return &Naive{n: n, rank: rank, cfg: cfg, view: NewView(n), noMore: newRankSet(n)}
}

// Name implements Exchanger.
func (x *Naive) Name() string { return string(MechNaive) }

// Init implements Exchanger. The initial load derives from the static
// mapping, which every process knows, so nothing is broadcast.
func (x *Naive) Init(ctx Context, initial Load) {
	x.my = initial
	x.lastSent = initial
	x.view.Set(x.rank, initial)
}

// LocalChange implements Exchanger. The naive scheme has no reservation
// mechanism, so every variation — slave work included — is applied
// locally and re-broadcast when large enough.
func (x *Naive) LocalChange(ctx Context, delta Load, asSlave bool) {
	x.my = x.my.Add(delta)
	x.view.Set(x.rank, x.my)
	x.maybeBroadcast(ctx)
}

func (x *Naive) maybeBroadcast(ctx Context) {
	if !x.my.Sub(x.lastSent).ExceedsAny(x.cfg.Threshold) {
		return
	}
	var payload any = UpdatePayload{Load: x.my} // boxed once, not per recipient
	for to := range peers(x.cfg.Topo, x.n, x.rank) {
		if x.cfg.NoMoreMasterOpt && x.noMore.has(to) {
			continue
		}
		ctx.Send(to, KindUpdate, payload, BytesUpdate)
		x.stats.UpdatesSent++
	}
	x.lastSent = x.my
}

// Local implements Exchanger.
func (x *Naive) Local() Load { return x.my }

// View implements Exchanger.
func (x *Naive) View() *View { return x.view }

// Acquire implements Exchanger: the maintained view is always "ready".
func (x *Naive) Acquire(ctx Context, ready func()) { ready() }

// Commit implements Exchanger. The naive mechanism publishes nothing at
// decision time; the master only updates its own estimates so that its
// *own* next decision does not double-book the same slaves. Other
// processes stay uninformed until the slaves themselves broadcast — the
// coherence weakness of Figure 1.
func (x *Naive) Commit(ctx Context, assignments []Assignment) {
	for _, a := range assignments {
		if int(a.Proc) == x.rank {
			x.my = x.my.Add(a.Delta)
			x.view.Set(x.rank, x.my)
			continue
		}
		x.view.AddTo(int(a.Proc), a.Delta)
	}
}

// NoMoreMaster implements Exchanger (§2.3 applies to any maintaining
// mechanism).
func (x *Naive) NoMoreMaster(ctx Context) {
	if !x.cfg.NoMoreMasterOpt {
		return
	}
	// Only neighbors ever send us updates, so only they need pruning.
	sendToPeers(ctx, x.cfg.Topo, KindNoMoreMaster, nil, BytesNoMoreMaster)
}

// HandleMessage implements Exchanger.
func (x *Naive) HandleMessage(ctx Context, from int, kind int, payload any) {
	switch kind {
	case KindUpdate:
		p := payload.(UpdatePayload)
		x.view.Set(from, p.Load)
	case KindNoMoreMaster:
		x.noMore.add(from)
	}
}

// Busy implements Exchanger: the naive mechanism never blocks the
// application.
func (x *Naive) Busy() bool { return false }

// Stats implements Exchanger.
func (x *Naive) Stats() Stats { return x.stats }

// rankSet is a set of ranks held as a bitset: the No_more_master sets
// of the maintaining mechanisms take n bits per rank, not n bytes.
type rankSet []uint64

func newRankSet(n int) rankSet { return make(rankSet, (n+63)/64) }

func (s rankSet) add(r int)      { s[r>>6] |= 1 << (r & 63) }
func (s rankSet) has(r int) bool { return s[r>>6]&(1<<(r&63)) != 0 }
