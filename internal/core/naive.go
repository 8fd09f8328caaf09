package core

// Naive is the mechanism of §2.1 (Algorithm 2): every process knows its
// own load; whenever it drifted by more than the threshold since the last
// broadcast, the absolute value is re-broadcast. Nothing anticipates the
// effect of a dynamic decision, so two masters selecting slaves in a
// short window can both count a victim as idle (Figure 1) — the
// limitation the experiments of §4.4 expose.
type Naive struct {
	base
	noMore rankSet // ranks that declared No_more_master
}

// NewNaive constructs the naive mechanism.
func NewNaive(n, rank int, cfg Config) *Naive {
	return &Naive{base: newBase(n, rank, cfg), noMore: newRankSet(n)}
}

// LocalChange implements Exchanger. The naive scheme has no reservation
// mechanism, so every variation — slave work included — is applied
// locally and re-broadcast when large enough.
func (x *Naive) LocalChange(ctx Context, delta Load, asSlave bool) {
	x.view.AddTo(x.rank, delta)
	if x.drifted(x.own()) {
		x.sendUpdate(ctx, x.noMore, x.lastSent)
	}
}

// Commit implements Exchanger. The naive mechanism publishes nothing at
// decision time; the master only updates its own estimates so that its
// *own* next decision does not double-book the same slaves. Other
// processes stay uninformed until the slaves themselves broadcast — the
// coherence weakness of Figure 1.
func (x *Naive) Commit(ctx Context, assignments []Assignment) { x.credit(assignments) }

// NoMoreMaster implements Exchanger (§2.3 applies to any maintaining
// mechanism).
func (x *Naive) NoMoreMaster(ctx Context) { x.announceNoMore(ctx) }

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

// rankSet is a set of ranks held as a bitset: the No_more_master sets
// of the maintaining mechanisms take n bits per rank, not n bytes.
type rankSet []uint64

func newRankSet(n int) rankSet { return make(rankSet, (n+63)/64) }

func (s rankSet) add(r int)      { s[r>>6] |= 1 << (r & 63) }
func (s rankSet) remove(r int)   { s[r>>6] &^= 1 << (r & 63) }
func (s rankSet) has(r int) bool { return s[r>>6]&(1<<(r&63)) != 0 }
