package core

// Diffusion is iterative neighbor-wise load averaging in the style of
// Demirel & Sbalzarini's diffusion balancing on arbitrary graph
// topologies — the second topology-native tenant of the neighbor
// seam. Whenever a rank's own load drifts past the threshold it sends
// its whole view vector to every neighbor; a receiver takes the
// sender's own entry verbatim (the sender knows it exactly) and
// averages every third-party entry with its own estimate. Repeated
// exchanges diffuse load information across the graph like heat: each
// hop halves the estimation error contributed by remote ranks, so the
// view quality degrades gracefully with graph distance instead of
// falling off a cliff.
//
// Like naive and gossip it has no reservation step; unlike them its
// messages grow with n (a full view per frame), trading bandwidth for
// per-hop convergence — the dissemination-cost trade-off `loadex
// experiment -topo full,ring,grid2d -mech all` tabulates.
type Diffusion struct{ base }

// NewDiffusion constructs the diffusion mechanism.
func NewDiffusion(n, rank int, cfg Config) *Diffusion {
	return &Diffusion{newBase(n, rank, cfg)}
}

// LocalChange implements Exchanger: every variation counts (no
// reservation mechanism), and a drift past the threshold triggers one
// diffusion exchange with all neighbors.
func (x *Diffusion) LocalChange(ctx Context, delta Load, asSlave bool) {
	x.view.AddTo(x.rank, delta)
	if !x.drifted(x.own()) {
		return
	}
	var payload any = DiffusePayload{Loads: x.view.Snapshot()}
	bytes := DiffuseBytes(x.n)
	for to := range peers(x.cfg.Topo, x.n, x.rank) {
		ctx.Send(to, KindDiffuse, payload, bytes)
		x.stats.UpdatesSent++
	}
}

// Commit implements Exchanger: like the naive scheme, nothing is
// published at decision time; only the master's own estimates move.
func (x *Diffusion) Commit(ctx Context, assignments []Assignment) { x.credit(assignments) }

// NoMoreMaster implements Exchanger: a no-op — diffusion needs every
// rank as an averaging relay, so nothing can be pruned.
func (x *Diffusion) NoMoreMaster(ctx Context) {}

// HandleMessage implements Exchanger.
func (x *Diffusion) HandleMessage(ctx Context, from int, kind int, payload any) {
	if kind != KindDiffuse {
		return
	}
	p := payload.(DiffusePayload)
	if len(p.Loads) != x.n {
		return // malformed vector (hostile wire input): ignore
	}
	for r := 0; r < x.n; r++ {
		switch r {
		case x.rank:
			// Never let a neighbor's estimate of *me* overwrite my
			// exact local value.
		case from:
			// The sender knows its own load exactly.
			x.view.Set(from, p.Loads[from])
		default:
			mine := x.view.Load(r)
			theirs := p.Loads[r]
			var avg Load
			for m := range avg {
				avg[m] = (mine[m] + theirs[m]) / 2
			}
			x.view.Set(r, avg)
		}
	}
}
