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
	base
	acc    Load // Δload accumulator
	noMore rankSet
}

// NewIncrements constructs the increments mechanism.
func NewIncrements(n, rank int, cfg Config) *Increments {
	return &Increments{base: newBase(n, rank, cfg), noMore: newRankSet(n)}
}

// LocalChange implements Exchanger (Algorithm 3, "when my load varies").
func (x *Increments) LocalChange(ctx Context, delta Load, asSlave bool) {
	if asSlave && isNonNegative(delta) {
		// (1): the master's Master_To_All already accounted this.
		return
	}
	x.view.AddTo(x.rank, delta)
	x.acc = x.acc.Add(delta)
	if x.acc.ExceedsAny(x.cfg.Threshold) {
		x.sendUpdate(ctx, x.noMore, x.acc)
		x.acc = Load{}
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
	for to := 0; to < x.n; to++ {
		if to == x.rank || x.cfg.NoMoreMasterOpt && x.noMore.has(to) && !selected[int32(to)] {
			continue
		}
		ctx.Send(to, KindMasterToAll, payload, bytes)
	}
	x.stats.ReservationsSent++
	x.credit(assignments)
}

// NoMoreMaster implements Exchanger (§2.3).
func (x *Increments) NoMoreMaster(ctx Context) { x.announceNoMore(ctx) }

// HandleMessage implements Exchanger.
func (x *Increments) HandleMessage(ctx Context, from int, kind int, payload any) {
	switch kind {
	case KindUpdate:
		p := payload.(UpdatePayload)
		x.view.AddTo(from, p.Load)
	case KindMasterToAll:
		// My own reservation credits my load (Algorithm 3, line 21)
		// without re-broadcasting.
		x.credit(payload.(MasterToAllPayload).Assignments)
	case KindNoMoreMaster:
		x.noMore.add(from)
	}
}
