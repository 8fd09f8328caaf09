package core

import (
	"reflect"
	"slices"
	"testing"
)

// denseSnapshot is the snapshot mechanism as it was before its
// bookkeeping became a short peer list: three n-long arrays per rank
// (snp, delayed, request) and an election that scans all n entries. It
// is kept as the oracle Snapshot is checked against, delivery by
// delivery (TestSnapshotMatchesDenseOracle); the protocol and its
// comments live in snapshot.go.
type denseSnapshot struct {
	base
	elect Elector

	leader    int32  // current leader, -1 = undefined
	nbSnp     int    // concurrent snapshots except my own
	duringSnp bool   // I believe I am the current leader
	snapshot  bool   // an active snapshot is led by someone else
	snp       []bool // snp[i]: process i has an open snapshot
	delayed   []bool // delayed[i]: I owe process i a postponed reply
	request   []int32

	initiating bool // Acquire in progress (from start to Commit)
	collecting bool // still gathering snp replies
	finalizing bool // end_snp sent, waiting for other snapshots
	nbMsgs     int
	ready      func()

	scope []int32

	acquireAt float64
}

func newDenseSnapshot(n, rank int, cfg Config) *denseSnapshot {
	el := cfg.Elect
	if el == nil {
		el = ElectMinRank
	}
	return &denseSnapshot{
		base:    newBase(n, rank, cfg),
		elect:   el,
		leader:  -1,
		snp:     make([]bool, n),
		delayed: make([]bool, n),
		request: make([]int32, n),
	}
}

func (x *denseSnapshot) LocalChange(ctx Context, delta Load, asSlave bool) {
	if asSlave && isNonNegative(delta) {
		return
	}
	x.view.AddTo(x.rank, delta)
}

func (x *denseSnapshot) Acquire(ctx Context, ready func()) {
	x.AcquireScoped(ctx, nil, ready)
}

func (x *denseSnapshot) AcquireScoped(ctx Context, scope []int32, ready func()) {
	x.scope = normalizeScope(scope, x.rank, x.n)
	if x.n == 1 || (x.scope != nil && len(x.scope) == 0) {
		ready()
		return
	}
	if x.initiating {
		panic("core: nested snapshot Acquire on one process")
	}
	x.initiating = true
	x.collecting = true
	x.ready = ready
	x.acquireAt = ctx.Now()
	x.stats.SnapshotsInitiated++
	x.leader = x.elect(int32(x.rank), x.leader, x.view)
	x.snp[x.rank] = true
	x.duringSnp = true
	x.startRound(ctx)
}

func (x *denseSnapshot) expected() int {
	if x.scope == nil {
		return x.n - 1
	}
	return len(x.scope)
}

func (x *denseSnapshot) sendScoped(ctx Context, kind int, payload any, bytes float64) {
	if x.scope == nil {
		x.fanOut(ctx, nil, kind, payload, bytes)
		return
	}
	for _, p := range x.scope {
		ctx.Send(int(p), kind, payload, bytes)
	}
}

func (x *denseSnapshot) startRound(ctx Context) {
	x.request[x.rank]++
	x.nbMsgs = 0
	x.sendScoped(ctx, KindStartSnp, StartSnpPayload{Req: x.request[x.rank]}, BytesStartSnp)
}

func (x *denseSnapshot) Commit(ctx Context, assignments []Assignment) {
	for _, a := range assignments {
		if int(a.Proc) != x.rank {
			ctx.Send(int(a.Proc), KindMasterToSlave, MasterToSlavePayload{Delta: a.Delta}, BytesMasterToSlave)
		}
	}
	x.credit(assignments)
	if !x.initiating {
		return // n == 1 or empty scope: nothing was gathered
	}
	if x.collecting {
		panic("core: Commit without completed Acquire")
	}
	x.sendScoped(ctx, KindEndSnp, nil, BytesEndSnp)
	x.initiating = false
	x.snp[x.rank] = false
	x.duringSnp = false
	x.leader = -1
	if x.nbSnp != 0 {
		x.snapshot = true
		x.electAmongOpen()
		x.answerDelayedLeader(ctx)
		x.finalizing = true
	} else {
		x.snapshot = false
		x.finalizing = false
	}
}

func (x *denseSnapshot) electAmongOpen() {
	x.leader = -1
	for i := 0; i < x.n; i++ {
		if x.snp[i] {
			x.leader = x.elect(int32(i), x.leader, x.view)
		}
	}
}

func (x *denseSnapshot) answerDelayedLeader(ctx Context) {
	if x.leader < 0 || int(x.leader) == x.rank {
		return
	}
	if x.delayed[x.leader] {
		ctx.Send(int(x.leader), KindSnp,
			SnpPayload{Req: x.request[x.leader], Load: x.own()}, BytesSnp)
		x.delayed[x.leader] = false
	}
}

func (x *denseSnapshot) NoMoreMaster(ctx Context) {}

func (x *denseSnapshot) HandleMessage(ctx Context, from int, kind int, payload any) {
	switch kind {
	case KindStartSnp:
		x.onStartSnp(ctx, from, payload.(StartSnpPayload).Req)
	case KindSnp:
		p := payload.(SnpPayload)
		x.onSnp(ctx, from, p)
	case KindEndSnp:
		x.onEndSnp(ctx, from)
	case KindMasterToSlave:
		x.view.AddTo(x.rank, payload.(MasterToSlavePayload).Delta)
	}
}

func (x *denseSnapshot) onStartSnp(ctx Context, from int, req int32) {
	x.leader = x.elect(int32(from), x.leader, x.view)
	x.request[from] = req
	if !x.snp[from] {
		x.nbSnp++
		x.snp[from] = true
		if x.nbSnp > x.stats.MaxConcurrentSnapshots {
			x.stats.MaxConcurrentSnapshots = x.nbSnp
		}
	}
	if int(x.leader) == x.rank {
		x.delayed[from] = true
		return
	}
	if !x.snapshot {
		x.snapshot = true
		x.leader = int32(from)
		ctx.Send(from, KindSnp, SnpPayload{Req: req, Load: x.own()}, BytesSnp)
	} else {
		if int(x.leader) != from || x.delayed[from] {
			x.delayed[from] = true
			return
		}
		ctx.Send(from, KindSnp, SnpPayload{Req: req, Load: x.own()}, BytesSnp)
	}
	x.maybeRestart(ctx)
}

func (x *denseSnapshot) maybeRestart(ctx Context) {
	if !x.initiating || !x.collecting {
		return
	}
	x.duringSnp = true
	x.stats.SnapshotRestarts++
	x.startRound(ctx)
}

func (x *denseSnapshot) onSnp(ctx Context, from int, p SnpPayload) {
	if !x.initiating || !x.collecting || p.Req != x.request[x.rank] {
		return // stale reply: no validity guarantee, ignore (§3)
	}
	x.nbMsgs++
	x.view.Set(from, p.Load)
	if x.nbMsgs == x.expected() {
		x.collecting = false
		x.stats.SnapshotTime += ctx.Now() - x.acquireAt
		cb := x.ready
		x.ready = nil
		if cb != nil {
			cb()
		}
	}
}

func (x *denseSnapshot) onEndSnp(ctx Context, from int) {
	x.leader = -1
	if x.snp[from] {
		x.nbSnp--
		x.snp[from] = false
	}
	if x.nbSnp == 0 && !x.initiating {
		x.snapshot = false
		x.finalizing = false
		return
	}
	if x.nbSnp == 0 {
		x.snapshot = false
		x.leader = int32(x.rank)
		return
	}
	x.electAmongOpen()
	if x.initiating {
		x.leader = x.elect(int32(x.rank), x.leader, x.view)
	}
	if int(x.leader) == x.rank {
		return
	}
	x.answerDelayedLeader(ctx)
}

func (x *denseSnapshot) Busy() bool {
	return x.initiating || x.finalizing || x.snapshot || x.nbSnp > 0
}

// snapshotUnderTest is what the lockstep test needs of both
// implementations.
type snapshotUnderTest interface {
	Exchanger
	AcquireScoped(ctx Context, scope []int32, ready func())
}

func leaderOf(x Exchanger) int32 {
	if s, ok := x.(*Snapshot); ok {
		return s.leader
	}
	return x.(*denseSnapshot).leader
}

// TestSnapshotMatchesDenseOracle drives Snapshot and the dense oracle in
// lockstep, one fakeNet each, through random FIFO-respecting delivery
// orders with 2–4 concurrent initiators making one or two decisions
// each, under every elector, with scoped acquisitions mixed in. After every step both must have sent the
// same messages, and every rank must agree on leader, Busy and Stats.
func TestSnapshotMatchesDenseOracle(t *testing.T) {
seeds:
	for seed := uint64(1); seed <= 400; seed++ {
		rng := splitmix64(seed)
		n := 3 + int(rng.next()%7)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(rng.next() % 3) // ties fall back to rank
		}
		elect := []Elector{ElectMinRank, ElectMaxRank, ElectByKey(keys)}[rng.next()%3]
		cfg := Config{Elect: elect}

		nets := [2]*fakeNet{newFakeNet(n), newFakeNet(n)}
		for r := 0; r < n; r++ {
			nets[0].exs[r] = NewSnapshot(n, r, cfg)
			nets[1].exs[r] = newDenseSnapshot(n, r, cfg)
			for _, f := range nets {
				f.exs[r].Init(f.ctx(r), Load{Workload: float64(r)})
			}
		}

		// left[r] is how many decisions rank r still has to make.
		left := make([]int, n)
		for _, r := range rng.permFirst(n, 2+int(rng.next()%3)) {
			left[r] = 1 + int(rng.next()%2)
		}
		acquire := func(r int) {
			var scope []int32
			if rng.next()%3 == 0 {
				for p := 0; p < n; p++ {
					if p != r && rng.next()%2 == 0 {
						scope = append(scope, int32(p))
					}
				}
				if scope == nil {
					scope = []int32{} // an empty scope completes at once
				}
			}
			slave := int32((r + 1) % n)
			if len(scope) > 0 {
				slave = scope[0]
			}
			for _, f := range nets {
				x := f.exs[r].(snapshotUnderTest)
				ctx := f.ctx(r)
				x.AcquireScoped(ctx, scope, func() {
					x.Commit(ctx, []Assignment{{Proc: slave, Delta: Load{Workload: 10}}})
				})
			}
			left[r]--
		}

		for step := 0; ; step++ {
			if step > 20000 {
				t.Fatalf("seed %d: no quiescence after %d steps", seed, step)
			}
			var idle []int
			for r, k := range left {
				if k > 0 && !nets[0].exs[r].Busy() {
					idle = append(idle, r)
				}
			}
			heads := nets[0].pairHeads()
			switch {
			case len(idle) > 0 && (len(heads) == 0 || rng.next()%4 == 0):
				acquire(idle[rng.next()%uint64(len(idle))])
			case len(heads) > 0:
				i := heads[rng.next()%uint64(len(heads))]
				for _, f := range nets {
					f.deliverAt(i)
				}
			default:
				if busy := slices.IndexFunc(nets[0].exs, Exchanger.Busy); busy >= 0 {
					t.Fatalf("seed %d: rank %d busy at quiescence", seed, busy)
				}
				continue seeds
			}
			if !reflect.DeepEqual(nets[0].queue, nets[1].queue) {
				t.Fatalf("seed %d step %d: sends differ\npeer list: %v\ndense:     %v",
					seed, step, nets[0].queue, nets[1].queue)
			}
			for r := 0; r < n; r++ {
				a, b := nets[0].exs[r], nets[1].exs[r]
				if leaderOf(a) != leaderOf(b) || a.Busy() != b.Busy() || a.Stats() != b.Stats() {
					t.Fatalf("seed %d step %d rank %d: leader %d/%d busy %v/%v stats %+v/%+v",
						seed, step, r, leaderOf(a), leaderOf(b), a.Busy(), b.Busy(), a.Stats(), b.Stats())
				}
			}
		}
	}
}

// splitmix64 is the small deterministic PRNG the oracle tests draw
// their runs from.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// permFirst returns k distinct values of [0, n), in random order.
func (s *splitmix64) permFirst(n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < min(k, n); i++ {
		j := i + int(s.next()%uint64(n-i))
		p[i], p[j] = p[j], p[i]
	}
	return p[:min(k, n)]
}

// pairHeads returns the queue index of the oldest message of every
// (from, to) pair: the deliveries per-pair FIFO allows next.
func (f *fakeNet) pairHeads() []int {
	var heads []int
	seen := map[[2]int]bool{}
	for i, m := range f.queue {
		if k := [2]int{m.from, m.to}; !seen[k] {
			seen[k] = true
			heads = append(heads, i)
		}
	}
	return heads
}

// deliverAt delivers the queued message at index i.
func (f *fakeNet) deliverAt(i int) {
	m := f.queue[i]
	f.queue = slices.Delete(f.queue, i, i+1)
	f.now += 0.001
	f.exs[m.to].HandleMessage(f.ctx(m.to), m.from, m.kind, m.payload)
}

// TestSnapshotInputsMatchDenseOracle feeds one rank of each
// implementation the same arbitrary input sequence — start_snp with
// reused request ids, end_snp, replies, master_to_slave and Acquire
// calls, in orders no reliable FIFO run produces, such as an end_snp
// from a peer still owed a delayed reply — and requires the same sends,
// leader, Busy and Stats after every input. It pins the per-rank state
// machine, stale entries included, not just the runs the protocol
// reaches.
func TestSnapshotInputsMatchDenseOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := splitmix64(seed)
		n := 3 + int(rng.next()%7)
		me := int(rng.next() % uint64(n))
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(rng.next() % 3)
		}
		elect := []Elector{ElectMinRank, ElectMaxRank, ElectByKey(keys)}[rng.next()%3]
		nets := [2]*fakeNet{newFakeNet(n), newFakeNet(n)}
		xs := [2]snapshotUnderTest{NewSnapshot(n, me, Config{Elect: elect}), newDenseSnapshot(n, me, Config{Elect: elect})}
		for i, f := range nets {
			f.exs[me] = xs[i]
			xs[i].Init(f.ctx(me), Load{Workload: 1})
		}
		peer := func() int { return (me + 1 + int(rng.next()%uint64(n-1))) % n }
		for step := 0; step < 300; step++ {
			from := peer()
			req := int32(1 + rng.next()%3)
			op := rng.next() % 6
			if op == 5 && xs[0].(*Snapshot).initiating {
				op = rng.next() % 5
			}
			for i, f := range nets {
				x, ctx := xs[i], f.ctx(me)
				switch op {
				case 0, 1:
					x.HandleMessage(ctx, from, KindStartSnp, StartSnpPayload{Req: req})
				case 2:
					x.HandleMessage(ctx, from, KindEndSnp, nil)
				case 3:
					x.HandleMessage(ctx, from, KindSnp, SnpPayload{Req: req, Load: Load{Workload: float64(step)}})
				case 4:
					x.HandleMessage(ctx, from, KindMasterToSlave, MasterToSlavePayload{Delta: Load{Workload: 1}})
				case 5:
					x.AcquireScoped(ctx, nil, func() {
						x.Commit(ctx, []Assignment{{Proc: int32(from), Delta: Load{Workload: 2}}})
					})
				}
			}
			a, b := xs[0], xs[1]
			if !reflect.DeepEqual(nets[0].queue, nets[1].queue) || leaderOf(a) != leaderOf(b) ||
				a.Busy() != b.Busy() || a.Stats() != b.Stats() {
				t.Fatalf("seed %d step %d (op %d from %d req %d): leader %d/%d busy %v/%v stats %+v/%+v\nsent: %v\ndense: %v",
					seed, step, op, from, req, leaderOf(a), leaderOf(b), a.Busy(), b.Busy(), a.Stats(), b.Stats(),
					nets[0].queue, nets[1].queue)
			}
			nets[0].queue, nets[1].queue = nets[0].queue[:0], nets[1].queue[:0]
		}
	}
}
