package core

// Increments is the mechanism of §2.2 (Algorithm 3), the default in MUMPS
// since version 4.3. Two ideas fix the naive scheme's incoherence:
//
//  1. Loads travel as increments: small variations accumulate locally in
//     Δload and are broadcast once they exceed the threshold, so
//     concurrent updates compose instead of overwriting each other.
//  2. Every slave selection is announced to all processes in a
//     Master_To_All message carrying the per-slave reserved load: the
//     decision is visible system-wide before the slaves have even
//     received their work. A slave therefore skips re-announcing the
//     (positive) variation when its subtask arrives — the master already
//     did (step (1) of Algorithm 3).
//
// The §2.3 No_more_master optimization prunes Update recipients.
type Increments struct {
	n, rank int
	cfg     Config
	my      Load
	acc     Load // Δload accumulator
	view    *View
	noMore  rankSet
	stats   Stats
}

// NewIncrements constructs the increments mechanism.
func NewIncrements(n, rank int, cfg Config) *Increments {
	return &Increments{n: n, rank: rank, cfg: cfg, view: NewView(n), noMore: newRankSet(n)}
}

// Name implements Exchanger.
func (x *Increments) Name() string { return string(MechIncrements) }

// Init implements Exchanger.
func (x *Increments) Init(ctx Context, initial Load) {
	x.my = initial
	x.view.Set(x.rank, initial)
}

// LocalChange implements Exchanger (Algorithm 3, "when my load varies").
func (x *Increments) LocalChange(ctx Context, delta Load, asSlave bool) {
	if asSlave && isNonNegative(delta) {
		// (1): the master's Master_To_All already accounted this.
		return
	}
	x.my = x.my.Add(delta)
	x.view.Set(x.rank, x.my)
	x.acc = x.acc.Add(delta)
	if x.acc.ExceedsAny(x.cfg.Threshold) {
		x.flush(ctx)
	}
}

func isNonNegative(d Load) bool {
	for _, v := range d {
		if v < 0 {
			return false
		}
	}
	return true
}

// flush broadcasts the accumulated increment.
func (x *Increments) flush(ctx Context) {
	var payload any = UpdatePayload{Load: x.acc} // boxed once, not per recipient
	for to := range peers(x.cfg.Topo, x.n, x.rank) {
		if x.cfg.NoMoreMasterOpt && x.noMore.has(to) {
			continue
		}
		ctx.Send(to, KindUpdate, payload, BytesUpdate)
		x.stats.UpdatesSent++
	}
	x.acc = Load{}
}

// Local implements Exchanger.
func (x *Increments) Local() Load { return x.my }

// View implements Exchanger.
func (x *Increments) View() *View { return x.view }

// Acquire implements Exchanger: the maintained view is always ready. The
// coherence condition of §1 — all pending state messages are treated
// before a decision — is guaranteed by the runtime's Algorithm 1 loop.
func (x *Increments) Acquire(ctx Context, ready func()) { ready() }

// Commit implements Exchanger: broadcast the reservation (Algorithm 3,
// "at each slave selection on the master side"). Every process —
// including the selected slaves, which credit their own load on reception
// — learns the decision. Recipients pruned by No_more_master still
// receive it if they are selected slaves (they need the self-credit).
func (x *Increments) Commit(ctx Context, assignments []Assignment) {
	if len(assignments) == 0 {
		return
	}
	var payload any = MasterToAllPayload{Assignments: assignments} // boxed once, not per recipient
	selected := make(map[int32]bool, len(assignments))
	for _, a := range assignments {
		selected[a.Proc] = true
	}
	bytes := MasterToAllBytes(len(assignments))
	for to := range peers(x.cfg.Topo, x.n, x.rank) {
		if x.cfg.NoMoreMasterOpt && x.noMore.has(to) && !selected[int32(to)] {
			continue
		}
		ctx.Send(to, KindMasterToAll, payload, bytes)
	}
	x.stats.ReservationsSent++
	// Update the master's own view immediately.
	for _, a := range assignments {
		if int(a.Proc) == x.rank {
			x.my = x.my.Add(a.Delta)
			x.view.Set(x.rank, x.my)
		} else {
			x.view.AddTo(int(a.Proc), a.Delta)
		}
	}
}

// NoMoreMaster implements Exchanger (§2.3).
func (x *Increments) NoMoreMaster(ctx Context) {
	if !x.cfg.NoMoreMasterOpt {
		return
	}
	// Only neighbors ever send us updates, so only they need pruning.
	sendToPeers(ctx, x.cfg.Topo, KindNoMoreMaster, nil, BytesNoMoreMaster)
}

// HandleMessage implements Exchanger.
func (x *Increments) HandleMessage(ctx Context, from int, kind int, payload any) {
	switch kind {
	case KindUpdate:
		p := payload.(UpdatePayload)
		x.view.AddTo(from, p.Load)
	case KindMasterToAll:
		p := payload.(MasterToAllPayload)
		for _, a := range p.Assignments {
			if int(a.Proc) == x.rank {
				// My own reservation: credit my load (Algorithm 3,
				// line 21) without re-broadcasting.
				x.my = x.my.Add(a.Delta)
				x.view.Set(x.rank, x.my)
			} else {
				x.view.AddTo(int(a.Proc), a.Delta)
			}
		}
	case KindNoMoreMaster:
		x.noMore.add(from)
	}
}

// Busy implements Exchanger: never blocks the application.
func (x *Increments) Busy() bool { return false }

// Stats implements Exchanger.
func (x *Increments) Stats() Stats { return x.stats }
