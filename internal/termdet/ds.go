package termdet

import "fmt"

// ds is the Dijkstra–Scholten engagement tree, extended from the
// classic single-source diffusing computation to the port's
// multi-source start: Attach seeds ready work on every rank, so the
// computation does not diffuse from one root. The standard fix is a
// virtual initial diffusion down the star under rank 0 — every rank
// starts engaged under the root, which is charged one unacknowledged
// message per peer — after which the classic rules apply unchanged:
//
//   - every application message increments the sender's deficit and
//     must eventually be acknowledged;
//   - the first message a disengaged process receives engages it under
//     the sender (its parent in the engagement tree); messages received
//     while engaged are acknowledged at once;
//   - a process detaches — sends its parent the deferred
//     acknowledgment — only when passive with zero deficit;
//   - the root is passive with zero deficit exactly when the
//     computation has terminated globally.
//
// Detection cost: one CtrlAck per application message, plus the n-1
// CtrlTerm announcement. Detection latency: one ack chain up the
// engagement tree — typically the fastest of the protocols here,
// bought with per-message overhead (the increments-vs-snapshot
// trade-off of the load mechanisms, replayed for quiescence).
type ds struct {
	rank int
	root bool
	// parent is the engagement parent, -1 when disengaged.
	parent int
	// kids are the rank's children in the star under rank 0: its share
	// of the virtual initial diffusion, and where it sends the
	// termination announcement.
	kids []int
	// deficit counts messages sent (incl. the root's virtual initial
	// diffusion) that are unacknowledged. selfDeficit is the slice of
	// deficit owed by in-flight self-sends; those acknowledge
	// internally on receipt instead of generating control frames.
	deficit     int
	selfDeficit int
	active      bool
	terminated  bool
}

func newDS(n, rank int) *ds {
	kids := starKids(n, rank)
	parent := 0
	if rank == 0 {
		parent = -1
	}
	return &ds{
		rank: rank, root: rank == 0, active: true,
		parent: parent, kids: kids, deficit: len(kids),
	}
}

// Name implements Protocol.
func (d *ds) Name() string { return ProtocolDS }

// Terminated implements Protocol.
func (d *ds) Terminated() bool { return d.terminated }

// engaged reports whether the process is part of the engagement tree.
func (d *ds) engaged() bool { return d.root || d.parent >= 0 }

// OnSend implements Protocol.
func (d *ds) OnSend(ctx Context, to int) {
	if !d.active && !d.engaged() {
		panic(fmt.Sprintf("termdet: ds: process %d sent while passive and disengaged", d.rank))
	}
	d.deficit++
	if to == d.rank {
		d.selfDeficit++
	}
}

// OnReceive implements Protocol.
func (d *ds) OnReceive(ctx Context, from int) {
	d.active = true
	if from == d.rank {
		// Self-send: acknowledge internally. The process was engaged
		// when it sent (deficit > 0 kept it engaged since), so no
		// engagement can transfer.
		if d.selfDeficit <= 0 || d.deficit <= 0 {
			panic(fmt.Sprintf("termdet: ds: process %d received unsent self message", d.rank))
		}
		d.selfDeficit--
		d.deficit--
		return
	}
	if !d.engaged() {
		d.parent = from
		return
	}
	// Already engaged: acknowledge at once.
	ctx.SendCtrl(from, Ctrl{Kind: CtrlAck})
}

// OnCtrl implements Protocol.
func (d *ds) OnCtrl(ctx Context, from int, c Ctrl) {
	switch c.Kind {
	case CtrlAck:
		if d.deficit <= 0 {
			panic(fmt.Sprintf("termdet: ds: process %d received ack with zero deficit", d.rank))
		}
		d.deficit--
		d.maybeDetach(ctx)
	case CtrlTerm:
		d.terminated = true
		announce(ctx, d.kids)
	default:
		panic(fmt.Sprintf("termdet: ds: process %d received %s frame", d.rank, CtrlName(c.Kind)))
	}
}

// Passive implements Protocol.
func (d *ds) Passive(ctx Context) {
	d.active = false
	d.maybeDetach(ctx)
}

// maybeDetach sends the deferred acknowledgment to the parent (or
// declares termination on the root) once passive with zero deficit.
// Idempotent: a detached process stays detached until re-engaged by a
// message.
func (d *ds) maybeDetach(ctx Context) {
	if d.active || d.deficit != 0 {
		return
	}
	if d.root {
		if !d.terminated {
			d.terminated = true
			announce(ctx, d.kids)
		}
		return
	}
	if d.parent >= 0 {
		p := d.parent
		d.parent = -1
		ctx.SendCtrl(p, Ctrl{Kind: CtrlAck})
	}
}
