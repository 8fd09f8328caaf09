package experiments

import (
	"slices"

	"repro/internal/core"
)

// oracle is the exact-view baseline of FIDELITY row 9: every rank of a
// run reads and writes one shared view, so a decision sees every load
// as it is. It sends no message and its Acquire is ready at once. A
// decision's reservations are credited at Commit, and a slave skips the
// positive change its master's reservation already counted, both as
// Increments does; only the delay before peers learn of it is gone.
type oracle struct {
	view *core.View // shared by every rank of the run
	rank int
}

// newOracle returns one run's Params.Exchanger: every rank it builds
// shares the first rank's view.
func newOracle() func(n, rank int) core.Exchanger {
	var view *core.View
	return func(n, rank int) core.Exchanger {
		if view == nil {
			view = core.NewView(n)
		}
		return &oracle{view: view, rank: rank}
	}
}

func (o *oracle) Init(_ core.Context, initial core.Load) { o.view.Set(o.rank, initial) }

func (o *oracle) LocalChange(_ core.Context, delta core.Load, asSlave bool) {
	if asSlave && !slices.ContainsFunc(delta[:], func(v float64) bool { return v < 0 }) {
		return
	}
	o.view.AddTo(o.rank, delta)
}

func (o *oracle) View() *core.View                          { return o.view }
func (o *oracle) Acquire(_ core.Context, ready func())      { ready() }
func (o *oracle) NoMoreMaster(core.Context)                 {}
func (o *oracle) HandleMessage(core.Context, int, int, any) {}
func (o *oracle) Busy() bool                                { return false }
func (o *oracle) Stats() core.Stats                         { return core.Stats{} }

func (o *oracle) Commit(_ core.Context, assignments []core.Assignment) {
	for _, a := range assignments {
		o.view.AddTo(int(a.Proc), a.Delta)
	}
}
