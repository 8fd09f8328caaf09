package core

import "math"

// Snapshot is the demand-driven "exact" algorithm of §3: a distributed
// snapshot in the style of Chandy-Lamport, coupled with a distributed
// leader election that sequentializes concurrent snapshots so that each
// dynamic decision observes the effect of all previous ones.
//
// Protocol sketch (faithful to the paper's pseudo-code):
//
//   - An initiator broadcasts start_snp with a request id and collects
//     one snp reply from every other process.
//   - A process receiving start_snp answers with its state unless it
//     believes a better leader exists (election by Elector, rank by
//     default) or it already answered this snapshot — then the reply is
//     delayed until the current leader's end_snp arrives.
//   - An initiator that loses the election answers the better leader,
//     then immediately re-broadcasts with a fresh request id; stale snp
//     replies are discarded by the id check.
//   - After collecting N-1 replies, the initiator takes its scheduling
//     decision, informs the selected slaves (master_to_slave, on the
//     state channel so it overtakes any later snapshot), broadcasts
//     end_snp and waits for all other ongoing snapshots to finish.
//   - Every process involved in any ongoing snapshot is Busy: the
//     application must not start tasks (or, in the threaded model, must
//     pause the running one) until all snapshots terminate.
type Snapshot struct {
	base
	elect Elector

	// Protocol state (names follow the paper's pseudo-code).
	leader    int32 // current leader, -1 = undefined
	nbSnp     int   // concurrent snapshots except my own
	duringSnp bool  // I believe I am the current leader
	snapshot  bool  // an active snapshot is led by someone else
	request   int32 // request id of my own current round
	// peers holds the paper's per-process snp, delayed and request
	// entries for the peers that have any: one record per peer whose
	// snapshot is open or to whom a reply is owed, in no order. Every
	// other peer's entries are false, false and unread, so a record that
	// is neither open nor delayed is free: it stays in place and the
	// next peer without a record takes its slot. Only snapshots open at
	// the same time hold records, a handful whatever n is, so the list
	// stays short and a cluster's snapshot state grows with its
	// concurrent snapshots rather than with n².
	peers []snpPeer

	initiating bool // Acquire in progress (from start to Commit)
	collecting bool // still gathering snp replies
	finalizing bool // end_snp sent, waiting for other snapshots
	nbMsgs     int
	ready      func()

	// scope restricts the current snapshot to a subset of processes
	// (§5 perspective: "snapshot algorithms involving only part of the
	// processes"). nil means all processes. Only members receive
	// start_snp/end_snp; non-members are neither consulted nor blocked.
	scope []int32

	acquireAt float64
}

// NewSnapshot constructs the snapshot mechanism.
func NewSnapshot(n, rank int, cfg Config) *Snapshot {
	el := cfg.Elect
	if el == nil {
		el = ElectMinRank
	}
	return &Snapshot{
		base:   newBase(n, rank, cfg),
		elect:  el,
		leader: -1,
	}
}

// snpPeer is what a process knows of one peer's snapshot: the request
// id of its latest start_snp, whether that snapshot is open (snp[i] in
// the paper), and whether a postponed reply is owed to it (delayed[i]).
type snpPeer struct {
	rank    int32
	req     int32
	open    bool
	delayed bool
}

// peer returns rank r's record, or nil if it has none.
func (x *Snapshot) peer(r int32) *snpPeer {
	ps := x.peers
	for i := range ps {
		if ps[i].rank == r {
			return &ps[i]
		}
	}
	return nil
}

// record returns rank r's record. A rank without one gets the first
// free slot, or a new one if none is free.
func (x *Snapshot) record(r int32) *snpPeer {
	ps := x.peers
	free := len(ps)
	for i := range ps {
		if ps[i].rank == r {
			return &ps[i]
		}
		if free == len(ps) && !ps[i].open && !ps[i].delayed {
			free = i
		}
	}
	if free == len(ps) {
		ps = append(ps, snpPeer{})
		x.peers = ps
	}
	ps[free] = snpPeer{rank: r}
	return &ps[free]
}

// LocalChange implements Exchanger. The snapshot scheme never broadcasts
// spontaneous updates: each process just keeps its own load current
// ("a processor is responsible for updating its own load information
// regularly", §3). Positive slave variations were already credited by the
// master's master_to_slave message.
func (x *Snapshot) LocalChange(ctx Context, delta Load, asSlave bool) {
	if asSlave && isNonNegative(delta) {
		return
	}
	x.view.AddTo(x.rank, delta)
}

// Acquire implements Exchanger: initiate a snapshot (§3, "Initiate a
// snapshot"). ready fires once all N-1 states arrived for the current
// request id.
func (x *Snapshot) Acquire(ctx Context, ready func()) {
	x.AcquireScoped(ctx, nil, ready)
}

// AcquireScoped initiates a snapshot restricted to the given processes
// (the §5 partial-snapshot extension). scope lists the peers to consult;
// the initiator itself is implicit and nil means everyone. Peers outside
// the scope never learn of the snapshot: fewer messages, and only scope
// members synchronize.
func (x *Snapshot) AcquireScoped(ctx Context, scope []int32, ready func()) {
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
	x.vote(int32(x.rank))
	x.duringSnp = true
	x.startRound(ctx)
}

// normalizeScope drops the initiator and out-of-range ranks; nil stays
// nil ("all").
func normalizeScope(scope []int32, rank, n int) []int32 {
	if scope == nil {
		return nil
	}
	out := make([]int32, 0, len(scope))
	for _, p := range scope {
		if int(p) != rank && p >= 0 && int(p) < n {
			out = append(out, p)
		}
	}
	return out
}

// expected returns how many snp replies complete the collection.
func (x *Snapshot) expected() int {
	if x.scope == nil {
		return x.n - 1
	}
	return len(x.scope)
}

// sendScoped sends a protocol message to every scope member (every
// peer when the scope is all).
func (x *Snapshot) sendScoped(ctx Context, kind int, payload any, bytes float64) {
	if x.scope == nil {
		x.fanOut(ctx, nil, kind, payload, bytes)
		return
	}
	for _, p := range x.scope {
		ctx.Send(int(p), kind, payload, bytes)
	}
}

// startRound opens a round with a fresh request id.
func (x *Snapshot) startRound(ctx Context) {
	x.request++
	x.nbMsgs = 0
	x.sendScoped(ctx, KindStartSnp, StartSnpPayload{Req: x.request}, BytesStartSnp)
}

// Commit implements Exchanger: the decision is taken; inform the selected
// slaves and finalize the snapshot (Algorithm 4 + "Finalize the
// snapshot").
func (x *Snapshot) Commit(ctx Context, assignments []Assignment) {
	// master_to_slave on the state channel: FIFO links guarantee each
	// slave credits its load before any later start_snp or this end_snp
	// overtakes it.
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
	// Finalize.
	x.sendScoped(ctx, KindEndSnp, nil, BytesEndSnp)
	x.initiating = false
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

// vote offers candidate c to the leader election. With no leader yet c
// leads, so the elector is asked only to choose between two.
func (x *Snapshot) vote(c int32) {
	if x.leader < 0 {
		x.leader = c
		return
	}
	x.leader = x.elect(c, x.leader, x.view)
}

// electAmongOpen recomputes the leader among processes with open
// snapshots, visited in ascending rank order: each pass picks the least
// open rank above the previous one. My own snapshot is open exactly
// while I am initiating.
func (x *Snapshot) electAmongOpen() {
	x.leader = -1
	me := int32(x.rank)
	for prev := int32(-1); ; {
		next := int32(math.MaxInt32)
		if x.initiating && me > prev {
			next = me
		}
		for _, p := range x.peers {
			if p.open && p.rank > prev && p.rank < next {
				next = p.rank
			}
		}
		if next == math.MaxInt32 {
			return
		}
		x.vote(next)
		prev = next
	}
}

// answerDelayedLeader sends the postponed reply to the (new) leader if
// one is owed.
func (x *Snapshot) answerDelayedLeader(ctx Context) {
	if x.leader < 0 || int(x.leader) == x.rank {
		return
	}
	if p := x.peer(x.leader); p != nil && p.delayed {
		p.delayed = false
		ctx.Send(int(x.leader), KindSnp, SnpPayload{Req: p.req, Load: x.own()}, BytesSnp)
	}
}

// NoMoreMaster implements Exchanger: the demand-driven scheme sends
// nothing unsolicited, so there is nothing to prune.
func (x *Snapshot) NoMoreMaster(ctx Context) {}

// HandleMessage implements Exchanger.
func (x *Snapshot) HandleMessage(ctx Context, from int, kind int, payload any) {
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

// onStartSnp follows "At the reception of a message start_snp from Pi".
func (x *Snapshot) onStartSnp(ctx Context, from int, req int32) {
	x.vote(int32(from))
	p := x.record(int32(from))
	p.req = req
	if !p.open {
		x.nbSnp++
		p.open = true
		if x.nbSnp > x.stats.MaxConcurrentSnapshots {
			x.stats.MaxConcurrentSnapshots = x.nbSnp
		}
	}
	if int(x.leader) == x.rank {
		// I am the leader: delay the answer until my snapshot ends.
		p.delayed = true
		return
	}
	if x.snapshot && (int(x.leader) != from || p.delayed) {
		// Not the leader I believe in (or already answered): delay.
		// No restart — only an actual answer invalidates my round.
		p.delayed = true
		return
	}
	// No active snapshot yet, or this is its leader: answer, and from is
	// the leader from now on.
	x.snapshot = true
	x.leader = int32(from)
	ctx.Send(from, KindSnp, SnpPayload{Req: req, Load: x.own()}, BytesSnp)
	// I answered a foreign leader: my own round (if any) is superseded by
	// that snapshot — reopen it with a fresh request id so the states I
	// collect reflect the foreign decision (pseudo-code: during_snp was
	// reset, the initiate loop re-broadcasts). Stale replies to the old
	// id are discarded.
	if x.initiating && x.collecting {
		x.restart(ctx)
	}
}

// restart re-opens the initiator's round after it answered a better
// leader.
func (x *Snapshot) restart(ctx Context) {
	x.duringSnp = true
	x.stats.SnapshotRestarts++
	x.startRound(ctx)
}

// onSnp follows "At the reception of a message of type snp from Pi".
func (x *Snapshot) onSnp(ctx Context, from int, p SnpPayload) {
	if !x.initiating || !x.collecting || p.Req != x.request {
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

// onEndSnp follows "At the reception of a message of type end_snp".
func (x *Snapshot) onEndSnp(ctx Context, from int) {
	x.leader = -1
	if p := x.peer(int32(from)); p != nil && p.open {
		p.open = false
		x.nbSnp--
	}
	if x.nbSnp == 0 && !x.initiating {
		x.snapshot = false
		x.finalizing = false
		return
	}
	if x.nbSnp == 0 {
		// Only my own snapshot remains.
		x.snapshot = false
		x.leader = int32(x.rank)
		return
	}
	x.electAmongOpen()
	if x.initiating {
		x.vote(int32(x.rank))
	}
	if int(x.leader) == x.rank {
		// I am the next leader; peers will answer my (re-)broadcast.
		return
	}
	x.answerDelayedLeader(ctx)
}

// Busy implements Exchanger: true while any snapshot involving this
// process is open (§3: after the first start_snp a process loops on
// receptions until all snapshots terminate).
func (x *Snapshot) Busy() bool {
	return x.initiating || x.finalizing || x.snapshot || x.nbSnp > 0
}
