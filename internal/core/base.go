package core

// base is the state every mechanism keeps, whatever way its load
// information travels: an estimate of every rank in view, its own exact
// load included — the own entry *is* the rank's load, there is no
// second copy — and the effect of its decisions' reservations on that
// view. Naive, Increments and Snapshot embed it by value (it costs no
// allocation of its own), so each mechanism file states only its
// exchange protocol.
type base struct {
	n, rank int
	cfg     Config
	view    *View
	// lastSent is the own load at naive's last absolute-load send;
	// drifted measures the threshold from it.
	lastSent Load
	stats    Stats
}

func newBase(n, rank int, cfg Config) base {
	return base{n: n, rank: rank, cfg: cfg, view: NewView(n)}
}

// Init implements Exchanger. The initial load derives from the static
// mapping, which every process knows, so nothing is sent.
func (x *base) Init(ctx Context, initial Load) {
	x.lastSent = initial
	x.view.Set(x.rank, initial)
}

// View implements Exchanger.
func (x *base) View() *View { return x.view }

// Stats implements Exchanger.
func (x *base) Stats() Stats { return x.stats }

// Acquire implements Exchanger for the maintained mechanisms: their view
// is always ready. The coherence condition of §1 — all pending state
// messages are treated before a decision — is guaranteed by the
// runtime's Algorithm 1 loop. Snapshot shadows it.
func (x *base) Acquire(ctx Context, ready func()) { ready() }

// Busy implements Exchanger for the maintained mechanisms: they never
// block the application. Snapshot shadows it.
func (x *base) Busy() bool { return false }

// own returns the rank's own load, the exact entry of its view.
func (x *base) own() Load { return x.view.at(x.rank) }

// credit applies a decision's reservations to the view, the own entry
// included: one AddTo per assignment, in order.
func (x *base) credit(assignments []Assignment) {
	for _, a := range assignments {
		x.view.AddTo(int(a.Proc), a.Delta)
	}
}

// drifted reports whether the own load l moved past the threshold
// since the last absolute-load send, and if so records l as sent.
func (x *base) drifted(l Load) bool {
	if !l.Sub(x.lastSent).ExceedsAny(x.cfg.Threshold) {
		return false
	}
	x.lastSent = l
	return true
}

// sendUpdate sends an Update carrying l to every peer not pruned by
// No_more_master (naive's absolute load, increments' Δload).
func (x *base) sendUpdate(ctx Context, noMore rankSet, l Load) {
	if !x.cfg.NoMoreMasterOpt {
		noMore = nil
	}
	x.stats.UpdatesSent += int64(x.fanOut(ctx, noMore, KindUpdate, UpdatePayload{Load: l}, BytesUpdate))
}

// multicaster is the one-pass fan-out a Context may offer, observably
// the loop of Sends in fanOut. Only the simulator's context has it;
// Context does not ask for it, so every other context needs only Send.
type multicaster interface {
	Multicast(kind int, payload any, bytes float64, skip []uint64) int
}

// fanOut sends one state message to every peer not in skip (nil: every
// peer) in ascending rank order and returns the number of recipients.
func (x *base) fanOut(ctx Context, skip rankSet, kind int, payload any, bytes float64) int {
	if mc, ok := ctx.(multicaster); ok {
		return mc.Multicast(kind, payload, bytes, skip)
	}
	sent := 0
	for to := 0; to < x.n; to++ {
		if to != x.rank && (skip == nil || !skip.has(to)) {
			ctx.Send(to, kind, payload, bytes)
			sent++
		}
	}
	return sent
}

// announceNoMore tells every peer this rank will never decide again
// (§2.3), when the optimization is on.
func (x *base) announceNoMore(ctx Context) {
	if x.cfg.NoMoreMasterOpt {
		ctx.Broadcast(KindNoMoreMaster, nil, BytesNoMoreMaster)
	}
}
